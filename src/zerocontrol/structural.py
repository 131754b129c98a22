"""Structural tests on pattern pairs: nilpotency, generic rank, reducibility,
generic controllability and generic zero controllability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _input_reach, _obstruction, _reachable_split, build_graph, has_cycle, state_name
from .patterns import PatternMatrix, _pair


def is_structurally_nilpotent(pattern_a: PatternMatrix) -> bool:
    """True when every realization of the square pattern is nilpotent, which
    happens exactly when its state graph is acyclic."""
    return not has_cycle(build_graph(pattern_a))


def compute_nu(pattern_a: PatternMatrix) -> int:
    """Largest number of state vertices covered by vertex-disjoint cycles.

    Equivalently the largest order of a principal sub-pattern with a perfect
    row-column matching, i.e. the generic number of nonzero eigenvalues.
    Solved as a sparse min-weight perfect matching: a real entry (i, j) is a
    weight-1 slot, a diagonal position without one offers a weight-2 "stay"
    slot, and any perfect matching then decomposes into real-entry cycles
    plus idle diagonal positions, so nu is 2n minus the optimum weight.
    """
    _pair(pattern_a, None)
    from scipy.sparse import csr_array  # slow imports, needed only here
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    n = pattern_a.n_rows
    rows, cols = pattern_a._coords
    stays = np.setdiff1d(np.arange(1, n + 1), rows[rows == cols])
    weights = np.concatenate((np.ones(len(rows)), np.full(len(stays), 2.0)))
    slots = csr_array((weights, (np.append(rows, stays) - 1, np.append(cols, stays) - 1)), shape=(n, n))
    weight = int(slots[min_weight_full_bipartite_matching(slots)].sum())
    assert n <= weight <= 2 * n  # the stay slots make the identity matching available
    return 2 * n - weight


def generic_rank(pattern: PatternMatrix) -> int:
    """Term rank: the maximum number of nonzeros, no two in the same row or
    column, which equals the rank of almost every realization.

    Deterministic augmenting-path bipartite matching (rows against columns),
    depth first with an explicit stack so long augmenting paths cannot
    exhaust the interpreter's recursion limit.  Visited columns stay banned
    for a whole phase over the free rows; phases repeat until one augments
    nothing, which proves the matching maximum (Berge).
    """
    rows, cols = pattern._coords  # by column, so each row's columns ascend
    adj: dict[int, list[int]] = {}
    for i, j in zip(rows.tolist(), cols.tolist()):
        adj.setdefault(i, []).append(j)
    match_col: dict[int, int] = {}

    def augment(root: int, banned: set[int]) -> bool:
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

    free, matched = sorted(adj), -1
    while matched < len(match_col):
        banned: set[int] = set()  # one set per phase
        matched = len(match_col)
        free = [r for r in free if not augment(r, banned)]
    return matched


def is_irreducible(pattern_a: PatternMatrix, pattern_b: PatternMatrix) -> bool:
    """True when no permutation can expose an input-unreachable block, i.e. every state vertex is reachable from
    some input vertex.  ``_pair`` refuses a non-square state pattern and an input pattern without one row per
    state; a missing input pattern means n-by-0, and a pair with no input column is refused."""
    pattern_b = _pair(pattern_a, pattern_b)
    if pattern_b.n_cols < 1:
        raise ValueError("irreducibility needs at least one input column")
    return all(_input_reach(build_graph(pattern_a, pattern_b))[1:])


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
    pattern_b = _pair(pattern_a, pattern_b)
    reached = _input_reach(build_graph(pattern_a, pattern_b))
    n = pattern_a.n_rows
    unreachable = frozenset(state_name(v) for v in range(1, n + 1) if not reached[v])
    grank = generic_rank(pattern_a.hstack(pattern_b))
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
    reachable and the test reduces to structural nilpotency.  The report
    boundary: the one place that names every state."""
    graph = build_graph(pattern_a, pattern_b)
    reached = _input_reach(graph)
    witness, blocking = _obstruction(graph, reached)
    return ZcReport(
        verdict=not blocking,
        reachable_states=frozenset(state_name(v) for v in range(1, len(reached)) if reached[v]),
        unreachable_states=frozenset(state_name(v) for v in range(1, len(reached)) if not reached[v]),
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
        r = self.n_reachable
        n = r + self.n_unreachable
        entries = (self.a11.nonzeros | {(i, j + r) for i, j in self.a12.nonzeros}
                   | {(i + r, j + r) for i, j in self.a22.nonzeros})
        a = PatternMatrix(n, n, frozenset(entries))
        b = PatternMatrix(n, self.b1.n_cols, frozenset(self.b1.nonzeros))
        return a, b


def reducible_decomposition(
    pattern_a: PatternMatrix, pattern_b: PatternMatrix | None = None
) -> Decomposition:
    """Reorder the states so the input-reachable ones come first, each group ascending, and cut the
    patterns into the corresponding blocks: the graph's reachable split, read off its coordinates."""
    b = _pair(pattern_a, pattern_b)
    order, _, n1, _ = _reachable_split(build_graph(pattern_a, b))  # which checks A21 = 0 and B2 = 0
    perm = np.concatenate((order[:n1], np.sort(order[n1:])))
    n2 = len(perm) - n1
    at = np.concatenate(([0], np.argsort(perm) + 1))  # state v moves to at[v]
    rows, cols = at[pattern_a._coords[0]], at[pattern_a._coords[1]]

    def block(keep, shape, row_shift, col_shift, rows=rows, cols=cols):
        rows, cols = rows[keep] - row_shift, cols[keep] - col_shift
        return PatternMatrix(*shape, frozenset(zip(rows.tolist(), cols.tolist())))
    upper, left = rows <= n1, cols <= n1
    return Decomposition(tuple(perm.tolist()), n1, n2, block(upper & left, (n1, n1), 0, 0),
                         block(upper & ~left, (n1, n2), 0, n1), block(~upper, (n2, n2), n1, n1),
                         block(..., (n1, b.n_cols), 0, 0, at[b._coords[0]], b._coords[1]))
