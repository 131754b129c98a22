"""Directed-graph view of a structured system: reachability, components, walks."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .patterns import PatternMatrix

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
    """(kind, index) of a vertex name such as ``x12`` or ``u3``; ("", 0) for any other string."""
    m = _VERTEX_RE.fullmatch(name)
    return (m[1], int(m[2])) if m else ("", 0)


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

    @property
    def state_vertices(self) -> tuple[str, ...]:
        return tuple(state_name(i) for i in range(1, self.n_states + 1))

    @property
    def input_vertices(self) -> tuple[str, ...]:
        return tuple(input_name(j) for j in range(1, self.n_inputs + 1))

    @cached_property
    def _csr(self) -> tuple:
        """The state subgraph's ``_csr_of``.  ``build_graph`` fills it in from
        the pattern's sorted entries; a graph constructed directly, such as
        ``find_cycle``'s subgraph, has only its edge set, sorted here."""
        edges = np.array(sorted(self.state_edges), dtype=np.int64).reshape(-1, 2)
        return _csr_of(self.n_states, edges[:, 0], edges[:, 1])

    @cached_property
    def state_successors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted successor lists; index 0 is padding so states index 1..n."""
        _, _, indptr, indices = self._csr
        return tuple(tuple(indices[indptr[v]:indptr[v + 1]]) for v in range(self.n_states + 1))

    @cached_property
    def input_successors(self) -> tuple[tuple[int, ...], ...]:
        """Each input's destination states, ascending; index 0 is padding."""
        succ: list[list[int]] = [[] for _ in range(self.n_inputs + 1)]
        for s, d in sorted(self.input_edges):
            succ[s].append(d)
        return tuple(map(tuple, succ))

    @cached_property
    def condensation(self) -> SccDecomposition:
        """The state subgraph's components, computed once per graph."""
        return scc_decompose(self)

    def resolve(self, name: str) -> tuple[str, int]:
        """Split a vertex name into (kind, index), rejecting unknown vertices."""
        kind, idx = _parse_vertex(name)
        if not kind:
            raise ValueError(f"unknown vertex {name!r}")
        bound = self.n_states if kind == "x" else self.n_inputs
        if idx > bound:
            raise ValueError(f"unknown vertex {name!r} (graph has {bound} {kind}-vertices)")
        return kind, idx


def build_graph(pattern_a: PatternMatrix, pattern_b: PatternMatrix | None = None) -> SystemGraph:
    """Assemble the system digraph from a square state pattern and an optional
    input pattern with matching row count."""
    if not pattern_a.is_square:
        raise ValueError(
            f"state pattern must be square, got {pattern_a.n_rows}x{pattern_a.n_cols}"
        )
    if pattern_b is not None and pattern_b.n_rows != pattern_a.n_rows:
        raise ValueError(
            f"input pattern has {pattern_b.n_rows} rows, expected {pattern_a.n_rows} "
            f"to match the {pattern_a.n_rows}x{pattern_a.n_cols} state pattern"
        )
    rows, cols = pattern_a._coords  # by column, then row: by source, then destination
    graph = SystemGraph(
        pattern_a.n_rows,
        0 if pattern_b is None else pattern_b.n_cols,
        frozenset(zip(cols.tolist(), rows.tolist())),
        frozenset() if pattern_b is None else frozenset((j, i) for i, j in pattern_b.nonzeros),
    )
    graph.__dict__["_csr"] = _csr_of(pattern_a.n_rows, cols, rows)
    return graph


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


def _reach_from(graph: SystemGraph, sources: Iterable[tuple[str, int]]) -> bytearray:
    """``_reach_states`` from resolved sources: a state seeds itself, an input its edges' heads."""
    return _reach_states(graph, [v for kind, idx in sources
                                 for v in ((idx,) if kind == "x" else graph.input_successors[idx])])


def reachable_from(graph: SystemGraph, sources: Iterable[str]) -> frozenset[str]:
    """State vertices reachable from the given source vertices.

    A state source reaches itself (walks of length zero count); an input
    source only contributes the states its edges lead to, and is never itself
    part of the result.
    """
    reached = _reach_from(graph, {graph.resolve(name) for name in sources})
    return frozenset(state_name(v) for v in range(1, graph.n_states + 1) if reached[v])


@dataclass(frozen=True)
class SccDecomposition:
    """Partition of the state vertices into maximal strongly connected
    components, with the component order induced by reachability.

    Components are numbered by their smallest member, so labels are stable;
    ``_comp_of[v]`` is the component of state v (index 0 is padding).
    ``order`` is the full (transitively closed) relation: (a, b) present means
    some vertex of component a has a walk to component b.  ``covering_order``
    is its transitive reduction, handy for drawing.  Both are built on first
    use from the condensation's direct successors, taken in Tarjan's
    emission order (each component after every component it reaches).
    """

    components: tuple[frozenset[str], ...]
    nontrivial: tuple[bool, ...]
    _successors: tuple[tuple[int, ...], ...]
    _sinks_first: tuple[int, ...]
    _comp_of: tuple[int, ...]

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
        own = [1 << a for a in range(len(self.components))]
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
        kind, idx = _parse_vertex(name)
        if kind != "x" or idx >= len(self._comp_of):
            raise KeyError(name)
        return self._comp_of[idx]

    def precedes(self, a: frozenset[str] | int, b: frozenset[str] | int) -> bool:
        """True when component a can reach component b (strictly: a != b)."""
        ka = a if isinstance(a, int) else self.components.index(frozenset(a))
        kb = b if isinstance(b, int) else self.components.index(frozenset(b))
        return bool(self._reach[ka] >> kb & 1)

    def label(self, k: int) -> str:
        return f"C{k + 1}"

    def nontrivial_components(self) -> tuple[frozenset[str], ...]:
        return tuple(c for c, nt in zip(self.components, self.nontrivial) if nt)


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
    names = list(map(state_name, (by_comp + 1).tolist()))
    members = np.searchsorted(comp[1:][by_comp], np.arange(emissions + 1)).tolist()
    return SccDecomposition(
        components=tuple([frozenset(names[i:j]) for i, j in zip(members, members[1:])]),
        nontrivial=tuple(nontrivial.tolist()),
        _successors=tuple([tuple(heads[i:j]) for i, j in zip(cuts, cuts[1:])]),
        _sinks_first=tuple(label.tolist()),
        _comp_of=tuple(comp.tolist()),
    )


def has_cycle(graph: SystemGraph) -> bool:
    """True when the state subgraph contains a cycle: Kahn's peel on the CSR
    removes states with no remaining predecessor, and a cycle is what is left
    (no condensation is built)."""
    n = graph.n_states
    _, dst, indptr, indices = graph._csr
    indegree = np.bincount(dst, minlength=n + 1).tolist()
    ready = [v for v in range(1, n + 1) if indegree[v] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for w in indices[indptr[v]:indptr[v + 1]]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return removed < n


def find_cycle(
    graph: SystemGraph, within: Iterable[str] | None = None
) -> tuple[tuple[str, str], ...] | None:
    """One concrete cycle among the given state vertices, or None.

    Deterministic: prefers the smallest self-loop, then the shortest cycle
    through the smallest vertex on a cycle: ``_obstruction``'s witness on the
    induced subgraph, seeded with the excluded states (which keep no edge).
    """
    excluded = bytearray(b"\x00" if within is None else b"\x01") * (graph.n_states + 1)
    for name in within or ():
        kind, idx = graph.resolve(name)
        if kind != "x":
            raise ValueError(f"cycle search is over states, got {name!r}")
        excluded[idx] = 0

    induced = frozenset((s, d) for s, d in graph.state_edges if not (excluded[s] or excluded[d]))
    subgraph = SystemGraph(graph.n_states, 0, induced, frozenset())
    return _obstruction(subgraph, [v for v in range(1, graph.n_states + 1) if excluded[v]])[1]


def _obstruction(graph: SystemGraph, seeds: Iterable[int]) -> tuple:
    """States unreachable from the seed states, and the cycles they hold: the
    reach bytes, one unreached cycle or None, and the unreached nontrivial
    components in label order.  The unreachable set is closed under
    predecessors, so it is a union of whole components of the graph."""
    scc = graph.condensation
    reached = _reach_states(graph, seeds)
    cyclic = [v for v in range(1, len(reached)) if not reached[v] and scc.nontrivial[scc._comp_of[v]]]
    blocking = sorted({scc._comp_of[v] for v in cyclic})
    witness = _cycle_witness(graph, reached, cyclic[0]) if cyclic else None
    return reached, witness, tuple(scc.components[k] for k in blocking)


def _cycle_witness(graph: SystemGraph, excluded: bytearray, start: int) -> tuple[tuple[str, str], ...]:
    """The smallest self-loop on a state that is not ``excluded``, otherwise
    the shortest cycle through ``start``: BFS back to it over the states not
    excluded, successors in ascending order.  A state on that cycle reaches
    ``start`` and is reached from it, so no condensation is needed."""
    src, dst, indptr, indices = graph._csr
    start = next((v for v in src[src == dst].tolist() if not excluded[v]), 0) or start
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
                    names = [state_name(x) for x in reversed(cycle)]
                    return tuple(zip(names, names[1:]))
                if not excluded[w] and w not in parent:
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
    if not pattern_a.is_square:
        raise ValueError("entry_paths needs a square state pattern")
    n = pattern_a.n_rows
    if k < 1:
        raise ValueError(f"walk length must be >= 1, got {k}")
    for name, idx in (("i", i), ("j", j)):
        if not 1 <= idx <= n:
            raise ValueError(f"index {name}={idx} out of range 1..{n}")

    src, dst, indptr, indices = build_graph(pattern_a)._csr
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
