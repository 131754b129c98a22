"""Directed-graph view of a structured system: reachability, components, walks."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .patterns import PatternMatrix, _pair, _sorted_repr

_VERTEX_RE = re.compile(r"([xu])([1-9][0-9]*)")

#: Hard cap on the number of walk monomials a single entry_paths call may emit.
MAX_WALK_MONOMIALS = 10**6


class WalkCountError(RuntimeError):
    """entry_paths would emit more monomials than the configured cap."""


def state_name(i: int) -> str:
    return f"x{i}"


def input_name(j: int) -> str:
    return f"u{j}"


def _parse_vertex(name: str) -> tuple[str, int]:
    """(kind, index) of a vertex name such as ``x12`` or ``u3``; ("", 0) for anything else."""
    m = isinstance(name, str) and _VERTEX_RE.fullmatch(name)
    return (m[1], int(m[2])) if m else ("", 0)


def _vertex_names(names: Iterable[str]) -> Iterable[str]:
    """``names``, unless it is one string: iterating that would read its characters as the names."""
    if isinstance(names, str):
        raise TypeError(f"expected a collection of vertex names, got the string {names!r}")
    return names


def _state_ids(n: int, names: Iterable[str], refusal: str) -> list[int]:
    """Sorted distinct ids of the named states, the one resolver from names to state ids.  An input vertex is
    refused in the caller's words, ``f"{refusal}, got 'u1'"``; any other non-state as an unknown vertex."""
    ids = set()
    for name in _vertex_names(names):
        kind, idx = _parse_vertex(name)
        if kind == "u":
            raise ValueError(f"{refusal}, got {name!r}")
        if kind != "x" or idx > n:
            raise ValueError(f"unknown vertex {name!r} (pattern has {n} states)")
        ids.add(idx)
    return sorted(ids)


def sort_vertices(names: Iterable[str]) -> list[str]:
    """Sort vertex names by kind, then index: indices have no leading zeros, so
    stable sorts by text, by length and by kind give that order on C-level keys."""
    return sorted(sorted(sorted(names), key=len), key=itemgetter(0))


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _csr_of(n: int, src: np.ndarray, dst: np.ndarray) -> tuple:
    """The edges, sorted by source and then destination, as the arrays
    (src, dst) and as flat lists (indptr, indices) in which state v's
    successors are indices[indptr[v]:indptr[v + 1]] (states index 1..n)."""
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n + 1), out=indptr[1:])
    return src, dst, indptr.tolist(), dst.tolist()


@dataclass(frozen=True)
class SystemGraph:
    """Digraph of a structured pair: state vertices x1..xn, input vertices u1..um.

    A nonzero (i, j) of the state pattern becomes the edge x_j -> x_i (state j
    feeds state i); a nonzero (i, j) of the input pattern becomes u_j -> x_i.
    Input vertices have outgoing edges only.
    """

    n_states: int
    n_inputs: int
    state_edges: frozenset[tuple[int, int]]  # (src state, dst state)
    input_edges: frozenset[tuple[int, int]]  # (src input, dst state)

    def __repr__(self) -> str:
        return (f"SystemGraph(n_states={self.n_states}, n_inputs={self.n_inputs}, "
                f"state_edges={_sorted_repr(self.state_edges)}, input_edges={_sorted_repr(self.input_edges)})")

    @property
    def state_vertices(self) -> tuple[str, ...]:
        return tuple(state_name(i) for i in range(1, self.n_states + 1))

    @property
    def input_vertices(self) -> tuple[str, ...]:
        return tuple(input_name(j) for j in range(1, self.n_inputs + 1))

    @cached_property
    def _csr(self) -> tuple:
        """The state subgraph's ``_csr_of``.  ``_graph_of`` fills it in from sorted edge arrays (the
        pattern's entries, or a peel's survivors); a directly built graph's edge set is sorted here."""
        edges = np.array(sorted(self.state_edges), dtype=np.int64).reshape(-1, 2)
        return _csr_of(self.n_states, edges[:, 0], edges[:, 1])

    @cached_property
    def state_successors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted successor lists; index 0 is padding so states index 1..n."""
        _, _, indptr, indices = self._csr
        return tuple(tuple(indices[indptr[v]:indptr[v + 1]]) for v in range(self.n_states + 1))

    @cached_property
    def condensation(self) -> SccDecomposition:
        """The state subgraph's components, computed once per graph."""
        return scc_decompose(self)

    def resolve(self, name: str) -> tuple[str, int]:
        """Split a vertex name into (kind, index), rejecting unknown vertices; a state as ``_state_ids`` does."""
        kind, idx = _parse_vertex(name)
        if kind == "u" and idx > self.n_inputs:
            raise ValueError(f"unknown vertex {name!r} (graph has {self.n_inputs} u-vertices)")
        return (kind, idx) if kind == "u" else ("x", _state_ids(self.n_states, [name], "")[0])


def build_graph(pattern_a: PatternMatrix, pattern_b: PatternMatrix | None = None) -> SystemGraph:
    """Assemble the system digraph of the pair.  ``_pair`` refuses a non-square state pattern and an
    input pattern without one row per state; a missing input pattern means n-by-0, no input vertices."""
    pattern_b = _pair(pattern_a, pattern_b)
    rows, cols = pattern_a._coords  # by column, then row: by source, then destination
    states, inputs = pattern_b._coords  # an input entry (i, j) is the edge u_j -> x_i
    return _graph_of(pattern_a.n_rows, pattern_b.n_cols, cols, rows, frozenset(zip(inputs.tolist(), states.tolist())))


def _graph_of(n: int, m: int, src: np.ndarray, dst: np.ndarray, input_edges: frozenset) -> SystemGraph:
    """The graph with these state edges, sorted by source and then destination, kept as its CSR alone."""
    graph = object.__new__(SystemGraph)
    graph.__dict__.update(n_states=n, n_inputs=m, input_edges=input_edges, _csr=_csr_of(n, src, dst))
    return graph


# A view set as PatternMatrix.nonzeros is: only a _graph_of graph names its state edges, from the CSR.
SystemGraph.state_edges = cached_property(lambda self: frozenset(zip(*[a.tolist() for a in self._csr[:2]])))
SystemGraph.state_edges.__set_name__(SystemGraph, "state_edges")


def _reach_states(graph: SystemGraph, seeds: Iterable[int]) -> bytearray:
    """reached[v] is 1 for every state v on a walk from a seed state (the
    seeds included); index 0 is padding."""
    _, _, indptr, indices = graph._csr
    reached = bytearray(graph.n_states + 1)
    frontier = list(seeds)
    while frontier:
        v = frontier.pop()
        if not reached[v]:
            reached[v] = 1
            frontier += indices[indptr[v]:indptr[v + 1]]
    return reached


def _input_reach(graph: SystemGraph) -> bytearray:
    """``_reach_states`` from the states the inputs feed: what the inputs reach."""
    return _reach_states(graph, (d for _, d in graph.input_edges))


def reachable_from(graph: SystemGraph, sources: Iterable[str]) -> frozenset[str]:
    """State vertices reachable from the given source vertices.

    A state source reaches itself (walks of length zero count); an input
    source only contributes the states its edges lead to, and is never itself
    part of the result.
    """
    sources = {graph.resolve(name) for name in _vertex_names(sources)}  # an input seeds its edges' heads
    reached = _reach_states(graph, [idx for kind, idx in sources if kind == "x"]
                            + [d for s, d in graph.input_edges if ("u", s) in sources])
    return frozenset(state_name(v) for v in range(1, graph.n_states + 1) if reached[v])


@dataclass(frozen=True)
class SccDecomposition:
    """Partition of the state vertices into maximal strongly connected
    components, with the component order induced by reachability.

    Components are numbered by their smallest member, so labels are stable.
    ``_members[k]`` lists component k's states ascending (``components`` names
    them on first read); state v is in ``_comp_of[v]`` (index 0 is padding).
    ``order`` is the full (transitively closed) relation: (a, b) present means
    some vertex of component a has a walk to component b.  ``covering_order``
    is its transitive reduction, handy for drawing.  Both are built on first
    use from the condensation's direct successors, taken in Tarjan's
    emission order (each component after every component it reaches).
    """

    nontrivial: tuple[bool, ...]
    _members: tuple[tuple[int, ...], ...]
    _successors: tuple[tuple[int, ...], ...]
    _sinks_first: tuple[int, ...]
    _comp_of: tuple[int, ...]

    @cached_property
    def components(self) -> tuple[frozenset[str], ...]:
        return tuple([frozenset(map(state_name, members)) for members in self._members])

    def _fold(self, masks: list[int]) -> list[int]:
        """ORs into each component's entry of ``masks`` (in place) those of
        every component it reaches, sinks first, so that each successor's
        mask is final before it is read."""
        for a in self._sinks_first:
            for b in self._successors[a]:
                masks[a] |= masks[b]
        return masks

    @cached_property
    def _reach(self) -> tuple[int, ...]:
        """Bitmask of the components each component strictly reaches."""
        own = [1 << a for a in range(len(self.nontrivial))]
        return tuple(mask ^ (1 << a) for a, mask in enumerate(self._fold(own)))

    @cached_property
    def order(self) -> frozenset[tuple[int, int]]:
        return frozenset((a, b) for a, mask in enumerate(self._reach) for b in _bits(mask))

    @cached_property
    def covering_order(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b) for a, succ in enumerate(self._successors) for b in succ
            if not any(self._reach[c] >> b & 1 for c in succ)
        )

    def component_of(self, name: str) -> int:
        return self._comp_of[_state_ids(len(self._comp_of) - 1, [name], "components hold states")[0]]

    def precedes(self, a: frozenset[str] | int, b: frozenset[str] | int) -> bool:
        """True when component a can reach component b (strictly: a != b)."""
        ka = a if isinstance(a, int) else self.components.index(frozenset(a))
        kb = b if isinstance(b, int) else self.components.index(frozenset(b))
        return bool(self._reach[ka] >> kb & 1)

    def label(self, k: int) -> str:
        return f"C{k + 1}"

    def nontrivial_components(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(map(state_name, m)) for m, nt in zip(self._members, self.nontrivial) if nt)


def scc_decompose(graph: SystemGraph) -> SccDecomposition:
    """Tarjan's algorithm on the state subgraph's CSR (input vertices are
    ignored), with an explicit DFS path, followed by the condensation's
    direct edges."""
    n = graph.n_states
    src, dst, indptr, indices = graph._csr
    index = [0] * (n + 1)  # discovery order from 1; 0 = unvisited
    low = [0] * (n + 1)
    emitted = [-1] * (n + 1)  # component in emission order; -1 until emitted
    scan = indptr[:]  # each vertex's next edge to look at
    stack: list[int] = []  # visited and not yet emitted
    path: list[int] = []
    counter = emissions = 0
    for root in range(1, n + 1):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        path.append(root)
        while path:
            v = path[-1]
            k, end, low_v = scan[v], indptr[v + 1], low[v]
            while k < end:
                w = indices[k]
                k += 1
                if not index[w]:
                    break
                if index[w] < low_v and emitted[w] < 0:
                    low_v = index[w]
            else:  # every successor is done, so v leaves the path
                path.pop()
                low[v] = low_v
                if low_v == index[v]:  # v roots a component
                    w = 0
                    while w != v:
                        w = stack.pop()
                        emitted[w] = emissions
                    emissions += 1
                elif low_v < low[path[-1]]:
                    low[path[-1]] = low_v
                continue
            low[v], scan[v] = low_v, k
            counter += 1
            index[w] = low[w] = counter
            stack.append(w)
            path.append(w)

    emitted_states = np.array(emitted[1:], dtype=np.int64)
    first_states = np.unique(emitted_states, return_index=True)[1]
    label = np.argsort(np.argsort(first_states))  # numbered by smallest member
    comp = np.concatenate(([-1], label[emitted_states]))
    nontrivial = np.bincount(comp[1:], minlength=emissions) > 1
    nontrivial[comp[src[src == dst]]] = True
    a, b = comp[src], comp[dst]
    cross = np.sort(a[a != b] * emissions + b[a != b])  # by (a, b); np.unique loads numpy.ma
    cross = cross[np.diff(cross, prepend=-1) > 0]
    heads = (cross % emissions).tolist()
    cuts = np.searchsorted(cross // emissions, np.arange(emissions + 1)).tolist()
    by_comp = np.argsort(comp[1:], kind="stable")  # states by component, ascending within
    states = (by_comp + 1).tolist()
    members = np.searchsorted(comp[1:][by_comp], np.arange(emissions + 1)).tolist()
    return SccDecomposition(
        nontrivial=tuple(nontrivial.tolist()),
        _members=tuple([tuple(states[i:j]) for i, j in zip(members, members[1:])]),
        _successors=tuple([tuple(heads[i:j]) for i, j in zip(cuts, cuts[1:])]),
        _sinks_first=tuple(label.tolist()),
        _comp_of=tuple(comp.tolist()),
    )


def _peel(graph: SystemGraph, excluded: bytes) -> tuple[np.ndarray, list[int]]:
    """Kahn's peel of the states outside ``excluded``, on the edges between them (an excluded
    count starts at 0 and only drops, so it is never readied; index 0, padding, peels at once).
    The mask of the survivors: the kept states on a cycle of the induced subgraph, or after one;
    and the peeled states, index 0 among them, in the order the peel removes them, each after its
    kept predecessors."""
    src, dst, indptr, indices = graph._csr
    kept = np.frombuffer(excluded, dtype=np.uint8) == 0
    indegree = np.bincount(dst[kept[src] & kept[dst]], minlength=graph.n_states + 1)
    ready = np.flatnonzero(kept & (indegree == 0)).tolist()
    indegree = indegree.tolist()
    popped: list[int] = []
    while ready:
        v = ready.pop()
        popped.append(v)
        for w in indices[indptr[v]:indptr[v + 1]]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return np.array(indegree) > 0, popped  # a peeled count stays 0, a survivor keeps a survivor before it


def _reachable_split(graph: SystemGraph) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The states in Kalman's canonical order (1963), as ids: the input-reached ones ascending, then
    the unreached ones in the order Kahn's peel (1962) removes them, then the peel's survivors
    ascending; with each state's position in that order (``at[v]`` for state v), the count n1 of
    reached states and the count k of survivors.  Nothing reached feeds an unreached state and no
    input does, so in this order every realization has A21 = 0 and B2 = 0; a peeled state is fed only
    by states peeled before it, so their block is strictly lower triangular.  These block facts are
    checked on the edges, and a violation raises.  The survivors lie on or after an unreached cycle:
    there are none exactly on a ZC verdict."""
    reached = _input_reach(graph)
    alive, popped = _peel(graph, reached)
    popped.remove(0)  # the padding index peels too
    first, last = np.flatnonzero(np.frombuffer(reached, dtype=np.uint8)), np.flatnonzero(alive)
    order = np.concatenate((first, np.array(popped, dtype=np.int64), last))
    n, n1, k = len(order), len(first), len(last)
    at = np.full(n + 1, -1, dtype=np.int64)
    at[order] = np.arange(n)
    src, dst = graph._csr[:2]
    rows, cols, fed = at[dst], at[src], at[[d for _, d in graph.input_edges]]  # edge j -> i is entry (i, j)
    if (fed >= n1).any() or ((rows >= n1) & ((cols < n1) | (rows < n - k) & (cols >= rows))).any():
        raise RuntimeError("the reachable split breaks Kalman's form: A21, B2 or the peeled block is not zero there")
    return order, at, n1, k


def has_cycle(graph: SystemGraph) -> bool:
    """True when the state subgraph holds a cycle: Kahn's peel leaves a state (no condensation)."""
    return bool(_peel(graph, bytes(graph.n_states + 1))[0].any())


def find_cycle(
    graph: SystemGraph, within: Iterable[str] | None = None
) -> tuple[tuple[str, str], ...] | None:
    """One concrete cycle among the given state vertices, or None.

    Deterministic: ``_obstruction``'s witness with the other states excluded, the smallest
    self-loop, else the shortest cycle through the smallest vertex on a cycle.
    """
    excluded = bytearray(b"\x00" if within is None else b"\x01") * (graph.n_states + 1)
    for v in () if within is None else _state_ids(graph.n_states, within, "cycle search is over states"):
        excluded[v] = 0
    return _obstruction(graph, excluded)[0]


def _obstruction(graph: SystemGraph, excluded: bytes) -> tuple:
    """The cycles among the states outside ``excluded``: one of them or None, and the nontrivial
    components they form, in label order.  Only the peel's k survivors, every cycle, are decomposed,
    renumbered 1..k in order.  When ``excluded`` is what some seeds reach, the rest is closed under
    predecessors, so these are whole components of the graph, numbered by smallest member as there."""
    alive = _peel(graph, excluded)[0]
    if not alive.any():
        return None, ()
    src, dst = graph._csr[:2]
    kept = alive[src] & alive[dst]
    renumber = np.cumsum(alive)  # survivor v becomes renumber[v] (alive[0], padding, is False)
    states = np.flatnonzero(alive).tolist()  # and survivor s is state states[s - 1]
    subgraph = _graph_of(len(states), 0, renumber[src[kept]], renumber[dst[kept]], frozenset())
    scc = subgraph.condensation
    blocking = [m for m, nt in zip(scc._members, scc.nontrivial) if nt]  # from the smallest state on a cycle
    names = {s: state_name(states[s - 1]) for m in blocking for s in m}  # the witness lies in them
    return _cycle_witness(subgraph, blocking[0][0], names), tuple(frozenset(map(names.get, m)) for m in blocking)


def _cycle_witness(graph: SystemGraph, start: int, names: dict[int, str]) -> tuple[tuple[str, str], ...]:
    """The smallest self-loop, otherwise the shortest cycle through ``start``:
    BFS back to it, successors in ascending order, named by ``names[v]``.  A state on that
    cycle reaches ``start`` and is reached from it, so no condensation is needed."""
    src, dst, indptr, indices = graph._csr
    start = next(iter(src[src == dst].tolist()), start)
    parent: dict[int, int] = {start: 0}
    queue = [start]
    while True:
        next_queue = []
        for v in queue:
            for w in indices[indptr[v]:indptr[v + 1]]:
                if w == start:
                    cycle = [start]  # start, v, parents of v .. start
                    while v:
                        cycle.append(v)
                        v = parent[v]
                    walk = [names[x] for x in reversed(cycle)]
                    return tuple(zip(walk, walk[1:]))
                if w not in parent:
                    parent[w] = v
                    next_queue.append(w)
        queue = next_queue


@dataclass(frozen=True)
class EdgeSymbol:
    """Symbolic matrix entry, e.g. a(1,3) for the state entry at row 1, col 3."""

    matrix: str  # "a" or "b"
    row: int
    col: int

    def __post_init__(self):
        if self.matrix not in ("a", "b"):
            raise ValueError(f"matrix tag must be 'a' or 'b', got {self.matrix!r}")

    def __str__(self) -> str:
        if self.row < 10 and self.col < 10:
            return f"{self.matrix}{self.row}{self.col}"
        return f"{self.matrix}({self.row},{self.col})"


@dataclass(frozen=True)
class PathMonomial:
    """Product of edge symbols along one walk, written in matrix-product order:
    the first factor's row is the walk's end vertex, the last factor's column
    its start vertex.  Consecutive factors must chain (col of one = row of the
    next), so the monomial is exactly one term of a matrix-power entry."""

    factors: tuple[EdgeSymbol, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a walk monomial needs at least one factor")
        for left, right in zip(self.factors, self.factors[1:]):
            if left.col != right.row:
                raise ValueError(
                    f"factors {left} and {right} do not chain into a walk"
                )

    def __str__(self) -> str:
        return "*".join(str(f) for f in self.factors)

    def evaluate(self, a_values: np.ndarray) -> float:
        """Numeric value of the monomial for a realized state matrix."""
        out = 1.0
        for f in self.factors:
            if f.matrix != "a":
                raise ValueError("only state-matrix monomials can be evaluated here")
            out *= float(a_values[f.row - 1, f.col - 1])
        return out


def entry_paths(
    pattern_a: PatternMatrix,
    i: int,
    j: int,
    k: int,
    *,
    max_monomials: int = MAX_WALK_MONOMIALS,
) -> frozenset[PathMonomial]:
    """All walks of exactly k edges from x_j to x_i, as symbolic monomials.

    The symbolic sum of the returned monomials equals entry (i, j) of the
    k-th power of the state matrix; walks may revisit vertices.  Raises
    WalkCountError when more than ``max_monomials`` walks exist.
    """
    graph = build_graph(pattern_a)
    n = graph.n_states
    if k < 1:
        raise ValueError(f"walk length must be >= 1, got {k}")
    for name, idx in (("i", i), ("j", j)):
        if not 1 <= idx <= n:
            raise ValueError(f"index {name}={idx} out of range 1..{n}")

    src, dst, indptr, indices = graph._csr
    by_dst = np.argsort(dst, kind="stable")
    _, _, first, preds = _csr_of(n, dst[by_dst], src[by_dst])  # the reversed edges
    # ways[s] maps each state with a walk of s edges to x_i to how many there
    # are: the cap reads x_j's count, the search keeps to the states present
    ways = [{i: 1}]
    for _ in range(k):
        step: dict[int, int] = {}
        for w, count in ways[-1].items():
            for v in preds[first[w]:first[w + 1]]:
                step[v] = step.get(v, 0) + count
        ways.append(step)
    total = ways[k].get(j, 0)
    if total > max_monomials:
        raise WalkCountError(
            f"{total} walks of length {k} from x{j} to x{i} exceed the cap of {max_monomials}"
        )

    monomials = []
    if total:
        # iterative DFS; pruning guarantees every completed walk ends at i
        walk = [j]
        stack = [iter([w for w in indices[indptr[j]:indptr[j + 1]] if w in ways[k - 1]])]
        while stack:
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                walk.pop()
                continue
            walk.append(w)
            steps_left = k - (len(walk) - 1)
            if steps_left == 0:
                factors = tuple(
                    EdgeSymbol("a", walk[t + 1], walk[t]) for t in range(len(walk) - 1)
                )[::-1]
                monomials.append(PathMonomial(factors))
                walk.pop()
            else:
                later = ways[steps_left - 1]
                stack.append(iter([v for v in indices[indptr[w]:indptr[w + 1]] if v in later]))
    return frozenset(monomials)
