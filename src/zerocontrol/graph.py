"""Directed-graph view of a structured system: reachability, components, walks."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .patterns import PatternMatrix

_VERTEX_RE = re.compile(r"^([xu])([1-9][0-9]*)$")

#: Hard cap on the number of walk monomials a single entry_paths call may emit.
MAX_WALK_MONOMIALS = 10**6


class WalkCountError(RuntimeError):
    """entry_paths would emit more monomials than the configured cap."""


def state_name(i: int) -> str:
    return f"x{i}"


def input_name(j: int) -> str:
    return f"u{j}"


def vertex_index(name: str) -> int:
    """Numeric part of a vertex name such as ``x12`` or ``u3``."""
    m = _VERTEX_RE.match(name)
    if m is None:
        raise ValueError(f"malformed vertex name {name!r}")
    return int(m.group(2))


def sort_vertices(names: Iterable[str]) -> list[str]:
    """Sort vertex names by kind then numeric index (x before u is irrelevant;
    kinds never mix in reports)."""
    return sorted(names, key=lambda v: (v[0], vertex_index(v)))


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
    def state_successors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted successor lists; index 0 is padding so states index 1..n."""
        succ: list[list[int]] = [[] for _ in range(self.n_states + 1)]
        for s, d in sorted(self.state_edges):
            succ[s].append(d)
        return tuple(tuple(lst) for lst in succ)

    @cached_property
    def input_successors(self) -> tuple[tuple[int, ...], ...]:
        succ: list[list[int]] = [[] for _ in range(self.n_inputs + 1)]
        for s, d in sorted(self.input_edges):
            succ[s].append(d)
        return tuple(tuple(lst) for lst in succ)

    def resolve(self, name: str) -> tuple[str, int]:
        """Split a vertex name into (kind, index), rejecting unknown vertices."""
        m = _VERTEX_RE.match(name)
        if m is None:
            raise ValueError(f"unknown vertex {name!r}")
        kind, idx = m.group(1), int(m.group(2))
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
    state_edges = frozenset((j, i) for i, j in pattern_a.nonzeros)
    if pattern_b is None:
        return SystemGraph(pattern_a.n_rows, 0, state_edges, frozenset())
    input_edges = frozenset((j, i) for i, j in pattern_b.nonzeros)
    return SystemGraph(pattern_a.n_rows, pattern_b.n_cols, state_edges, input_edges)


def reachable_from(graph: SystemGraph, sources: Iterable[str]) -> frozenset[str]:
    """State vertices reachable from the given source vertices.

    A state source reaches itself (walks of length zero count); an input
    source only contributes the states its edges lead to, and is never itself
    part of the result.
    """
    frontier: list[int] = []
    reached: set[int] = set()
    for kind, idx in sorted({graph.resolve(name) for name in sources}):
        if kind == "x":
            if idx not in reached:
                reached.add(idx)
                frontier.append(idx)
        else:
            for dst in graph.input_successors[idx]:
                if dst not in reached:
                    reached.add(dst)
                    frontier.append(dst)
    while frontier:
        v = frontier.pop()
        for w in graph.state_successors[v]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return frozenset(state_name(i) for i in reached)


@dataclass(frozen=True)
class SccDecomposition:
    """Partition of the state vertices into maximal strongly connected
    components, with the component order induced by reachability.

    Components are numbered by their smallest member, so labels are stable.
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

    @cached_property
    def _component_of(self) -> dict[str, int]:
        lookup: dict[str, int] = {}
        for k, comp in enumerate(self.components):
            for v in comp:
                lookup[v] = k
        return lookup

    @cached_property
    def _reach(self) -> tuple[int, ...]:
        """Bitmask of the components each component strictly reaches."""
        reach = [0] * len(self.components)
        for a in self._sinks_first:
            for b in self._successors[a]:
                reach[a] |= (1 << b) | reach[b]
        return tuple(reach)

    @cached_property
    def order(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b) for a, mask in enumerate(self._reach)
            for b in range(mask.bit_length()) if mask >> b & 1
        )

    @cached_property
    def covering_order(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b) for a, succ in enumerate(self._successors) for b in succ
            if not any(self._reach[c] >> b & 1 for c in succ)
        )

    def component_of(self, name: str) -> int:
        return self._component_of[name]

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
    """Tarjan's algorithm on the state subgraph (input vertices are ignored),
    followed by the condensation's direct edges."""
    n = graph.n_states
    succ = graph.state_successors
    index = [0] * (n + 1)  # 0 = unvisited; discovery indices start at 1
    lowlink = [0] * (n + 1)
    on_stack = [False] * (n + 1)
    stack: list[int] = []
    counter = 1
    raw_components: list[list[int]] = []

    for root in range(1, n + 1):
        if index[root]:
            continue
        # explicit recursion stack: (vertex, iterator position)
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pos, len(succ[v])):
                w = succ[v][k]
                if not index[w]:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                raw_components.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    emitted = [comp[0] for comp in raw_components]  # sinks first
    raw_components.sort(key=min)
    comp_of = [0] * (n + 1)
    for k, comp in enumerate(raw_components):
        for v in comp:
            comp_of[v] = k

    p = len(raw_components)
    direct: list[set[int]] = [set() for _ in range(p)]
    has_inner_edge = [False] * p
    for s, d in graph.state_edges:
        a, b = comp_of[s], comp_of[d]
        if a == b:
            has_inner_edge[a] = True
        else:
            direct[a].add(b)

    components = tuple(
        frozenset(state_name(v) for v in comp) for comp in raw_components
    )
    nontrivial = tuple(
        len(comp) > 1 or has_inner_edge[k] for k, comp in enumerate(raw_components)
    )
    successors = tuple(tuple(d) for d in direct)
    return SccDecomposition(components, nontrivial, successors, tuple(comp_of[v] for v in emitted))


def has_cycle(graph: SystemGraph) -> bool:
    """True when the state subgraph contains a cycle, i.e. some maximal
    strongly connected component is nontrivial."""
    return any(scc_decompose(graph).nontrivial)


def find_cycle(
    graph: SystemGraph, within: Iterable[str] | None = None
) -> tuple[tuple[str, str], ...] | None:
    """One concrete cycle among the given state vertices, or None.

    Deterministic: prefers the smallest self-loop, then the shortest cycle
    through the smallest vertex of the first nontrivial component.
    """
    if within is None:
        allowed = set(range(1, graph.n_states + 1))
    else:
        allowed = set()
        for name in within:
            kind, idx = graph.resolve(name)
            if kind != "x":
                raise ValueError(f"cycle search is over states, got {name!r}")
            allowed.add(idx)

    for v in sorted(allowed):
        if (v, v) in graph.state_edges:
            return ((state_name(v), state_name(v)),)

    # the smallest vertex on any cycle of the induced subgraph is the smallest
    # member of its first nontrivial component
    induced = frozenset((s, d) for s, d in graph.state_edges if s in allowed and d in allowed)
    scc = scc_decompose(SystemGraph(graph.n_states, 0, induced, frozenset()))
    first = next((c for c, nt in zip(scc.components, scc.nontrivial) if nt), None)
    if first is None:
        return None
    # shortest cycle through it: BFS back to start, successors ascending
    start = min(vertex_index(v) for v in first)
    parent: dict[int, int] = {start: 0}
    queue = [start]
    while True:
        next_queue = []
        for v in queue:
            for w in graph.state_successors[v]:
                if w not in allowed:
                    continue
                if w == start:
                    cycle = [start]  # start, v, parents of v .. start
                    while v:
                        cycle.append(v)
                        v = parent[v]
                    names = [state_name(x) for x in reversed(cycle)]
                    return tuple(zip(names, names[1:]))
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


def _count_walks(succ, start: int, end: int, length: int, n: int) -> int:
    """Exact number of walks start -> end using `length` edges (Python ints,
    no overflow)."""
    counts = [0] * (n + 1)
    counts[start] = 1
    for _ in range(length):
        nxt = [0] * (n + 1)
        for v in range(1, n + 1):
            c = counts[v]
            if c:
                for w in succ[v]:
                    nxt[w] += c
        counts = nxt
    return counts[end]


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

    graph = build_graph(pattern_a)
    succ = graph.state_successors
    total = _count_walks(succ, j, i, k, n)
    if total > max_monomials:
        raise WalkCountError(
            f"{total} walks of length {k} from x{j} to x{i} exceed the cap of {max_monomials}"
        )

    # distance-to-target pruning: steps_left must be able to finish at i
    reach_in = [set() for _ in range(k + 1)]
    reach_in[0] = {i}
    pred: list[list[int]] = [[] for _ in range(n + 1)]
    for s, d in sorted(graph.state_edges):
        pred[d].append(s)
    for step in range(1, k + 1):
        reach_in[step] = {p for v in reach_in[step - 1] for p in pred[v]}

    monomials = []
    if j in reach_in[k]:
        # iterative DFS; pruning guarantees every completed walk ends at i
        walk = [j]
        stack = [iter([w for w in succ[j] if w in reach_in[k - 1]])]
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
                stack.append(iter([v for v in succ[w] if v in reach_in[steps_left - 1]]))
    return frozenset(monomials)
