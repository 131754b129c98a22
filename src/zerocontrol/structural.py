"""Structural tests on pattern pairs: nilpotency, generic rank, reducibility,
generic controllability and generic zero controllability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    SystemGraph,
    build_graph,
    find_cycle,
    reachable_from,
    scc_decompose,
)
from .patterns import PatternMatrix


def is_structurally_nilpotent(pattern_a: PatternMatrix) -> bool:
    """True when every realization of the square pattern is nilpotent, which
    happens exactly when its state graph is acyclic.

    Uses Kahn's algorithm, deliberately a different code path from both
    `has_cycle` (Tarjan) and `compute_nu` (matching), so the three can
    cross-check each other.
    """
    if not pattern_a.is_square:
        raise ValueError("nilpotency is only defined for square patterns")
    n = pattern_a.n_rows
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    indegree = [0] * (n + 1)
    for i, j in pattern_a.nonzeros:  # edge x_j -> x_i
        succ[j].append(i)
        indegree[i] += 1
    ready = [v for v in range(1, n + 1) if indegree[v] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for w in succ[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return removed == n


def compute_nu(pattern_a: PatternMatrix) -> int:
    """Largest number of state vertices covered by vertex-disjoint cycles.

    Equivalently the largest order of a principal sub-pattern with a perfect
    row-column matching, i.e. the generic number of nonzero eigenvalues.
    Solved as a max-weight assignment: a real entry (i, j) is a weight-1 slot,
    every diagonal position additionally offers a weight-0 "stay" slot, and
    any full assignment then decomposes into real-entry cycles plus idle
    diagonal positions, so the optimum counts the covered vertices.
    """
    from scipy.optimize import linear_sum_assignment  # slow import, needed only here

    if not pattern_a.is_square:
        raise ValueError("nu is only defined for square patterns")
    n = pattern_a.n_rows
    if n == 0:
        return 0
    forbidden = 2.0 * n + 1.0  # worse than any all-real assignment can recoup
    cost = np.full((n, n), forbidden)
    for i, j in pattern_a.nonzeros:
        cost[i - 1, j - 1] = -1.0
    for d in range(n):
        cost[d, d] = min(cost[d, d], 0.0)
    rows, cols = linear_sum_assignment(cost)
    total = cost[rows, cols].sum()
    assert total <= 0.0  # identity assignment is always available
    return int(round(-total))


def generic_rank(pattern: PatternMatrix) -> int:
    """Term rank: the maximum number of nonzeros, no two in the same row or
    column, which equals the rank of almost every realization.

    Deterministic augmenting-path bipartite matching (rows against columns),
    depth first with an explicit stack so long augmenting paths cannot
    exhaust the interpreter's recursion limit.
    """
    adj: dict[int, list[int]] = {}
    for i, j in sorted(pattern.nonzeros):
        adj.setdefault(i, []).append(j)
    match_col: dict[int, int] = {}

    def augment(root: int) -> bool:
        banned: set[int] = set()
        path = [[root, iter(adj[root]), 0]]  # row, untried columns, column in use
        while path:
            frame = path[-1]
            c = frame[2] = next((c for c in frame[1] if c not in banned), 0)
            if not c:
                path.pop()
            elif c in match_col:
                banned.add(c)
                path.append([match_col[c], iter(adj[match_col[c]]), 0])
            else:
                for r, _, col in path:
                    match_col[col] = r
                return True
        return False

    return sum(augment(r) for r in sorted(adj))


def _split_by_input_reachability(
    pattern_a: PatternMatrix, pattern_b: PatternMatrix | None
) -> tuple[SystemGraph, frozenset[str], frozenset[str]]:
    graph = build_graph(pattern_a, pattern_b)
    reachable = reachable_from(graph, graph.input_vertices)
    unreachable = frozenset(set(graph.state_vertices) - reachable)
    return graph, reachable, unreachable


def is_irreducible(pattern_a: PatternMatrix, pattern_b: PatternMatrix) -> bool:
    """True when no permutation can expose an input-unreachable block, i.e.
    every state vertex is reachable from some input vertex."""
    if pattern_b.n_cols < 1:
        raise ValueError("irreducibility needs at least one input column")
    _, _, unreachable = _split_by_input_reachability(pattern_a, pattern_b)
    return not unreachable


@dataclass(frozen=True)
class ControllabilityReport:
    """Outcome of the generic controllability test with a human-auditable
    certificate: which of the two conditions failed, and for the reachability
    condition, which states witness the failure."""

    verdict: bool
    failed_condition: str | None  # None | "irreducibility" | "generic-rank"
    unreachable_states: frozenset[str]
    generic_rank: int
    n_states: int

    def __bool__(self) -> bool:
        return self.verdict


def is_generically_controllable(
    pattern_a: PatternMatrix, pattern_b: PatternMatrix | None
) -> ControllabilityReport:
    """Generic controllability of the pair: irreducible and the stacked
    pattern [A B] has full term rank."""
    _, _, unreachable = _split_by_input_reachability(pattern_a, pattern_b)
    n = pattern_a.n_rows
    stacked = pattern_a.hstack(pattern_b) if pattern_b is not None else pattern_a
    grank = generic_rank(stacked)
    if unreachable:
        return ControllabilityReport(False, "irreducibility", unreachable, grank, n)
    if grank < n:
        return ControllabilityReport(False, "generic-rank", frozenset(), grank, n)
    return ControllabilityReport(True, None, frozenset(), grank, n)


@dataclass(frozen=True)
class ZcReport:
    """Verdict of the generic zero-controllability test.

    The state set splits into the part reachable from the inputs and the
    rest; the verdict is positive exactly when the unreachable part is
    acyclic.  On a negative verdict, ``cycle_witness`` holds one concrete
    unreachable cycle and ``nontrivial_unreachable_components`` all strongly
    connected components that obstruct the verdict.
    """

    verdict: bool
    reachable_states: frozenset[str]
    unreachable_states: frozenset[str]
    cycle_witness: tuple[tuple[str, str], ...] | None
    nontrivial_unreachable_components: tuple[frozenset[str], ...]

    def __bool__(self) -> bool:
        return self.verdict


def is_generically_zero_controllable(
    pattern_a: PatternMatrix, pattern_b: PatternMatrix | None = None
) -> ZcReport:
    """Generic zero controllability: the input-unreachable part of the state
    graph must contain no cycle.  A missing input pattern means nothing is
    reachable and the test reduces to structural nilpotency."""
    graph, reachable, unreachable = _split_by_input_reachability(pattern_a, pattern_b)
    scc = scc_decompose(graph)
    blocking = tuple(
        comp
        for comp, nt in zip(scc.components, scc.nontrivial)
        if nt and comp <= unreachable
    )
    witness = find_cycle(graph, within=unreachable) if blocking else None
    return ZcReport(
        verdict=not blocking,
        reachable_states=reachable,
        unreachable_states=unreachable,
        cycle_witness=witness,
        nontrivial_unreachable_components=blocking,
    )


@dataclass(frozen=True)
class Decomposition:
    """Permutation exposing the input-unreachable block.

    ``permutation`` lists original state indices, reachable ones first (each
    group ascending).  In the permuted pair the lower-left state block and
    the lower input block are identically zero, and the leading pair
    (a11, b1) is irreducible.  ``n_unreachable`` may be zero when the pair
    is already irreducible.
    """

    permutation: tuple[int, ...]
    n_reachable: int
    n_unreachable: int
    a11: PatternMatrix
    a12: PatternMatrix
    a22: PatternMatrix
    b1: PatternMatrix

    def permuted_pair(self) -> tuple[PatternMatrix, PatternMatrix]:
        """Reassembled permuted patterns, for round-trip checks."""
        n = self.n_reachable + self.n_unreachable
        m = self.b1.n_cols
        entries = set()
        for i, j in self.a11.nonzeros:
            entries.add((i, j))
        for i, j in self.a12.nonzeros:
            entries.add((i, j + self.n_reachable))
        for i, j in self.a22.nonzeros:
            entries.add((i + self.n_reachable, j + self.n_reachable))
        a = PatternMatrix(n, n, frozenset(entries))
        b = PatternMatrix(n, m, frozenset(self.b1.nonzeros))
        return a, b


def reducible_decomposition(
    pattern_a: PatternMatrix, pattern_b: PatternMatrix | None = None
) -> Decomposition:
    """Reorder the states so the input-reachable ones come first, and cut the
    patterns into the corresponding blocks."""
    graph, reachable, unreachable = _split_by_input_reachability(pattern_a, pattern_b)
    reach_idx = sorted(int(v[1:]) for v in reachable)
    unreach_idx = sorted(int(v[1:]) for v in unreachable)
    perm = tuple(reach_idx + unreach_idx)
    n1, n2 = len(reach_idx), len(unreach_idx)
    m = pattern_b.n_cols if pattern_b is not None else 0
    b = pattern_b if pattern_b is not None else PatternMatrix.zeros(pattern_a.n_rows, 0)

    a11 = pattern_a.submatrix(reach_idx, reach_idx)
    a12 = pattern_a.submatrix(reach_idx, unreach_idx)
    a21 = pattern_a.submatrix(unreach_idx, reach_idx)
    a22 = pattern_a.submatrix(unreach_idx, unreach_idx)
    b1 = b.submatrix(reach_idx, list(range(1, m + 1)))
    b2 = b.submatrix(unreach_idx, list(range(1, m + 1)))
    # reachability is closed under edges, so these blocks cannot carry entries
    assert not a21.nonzeros and not b2.nonzeros
    return Decomposition(perm, n1, n2, a11, a12, a22, b1)
