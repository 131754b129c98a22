"""Driver-node selection: which states need a direct input so that every
cycle of the state graph becomes reachable, making the system generically
steerable to zero."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Literal

from .graph import build_graph, scc_decompose, state_name, vertex_index
from .patterns import PatternMatrix
from .structural import is_generically_zero_controllable

#: Above this many candidate components the exact search hands over to the
#: greedy heuristic.
DEFAULT_EXACT_CAP = 25


class ExactSearchSkipped(UserWarning):
    """The instance exceeded the exact-search cap; a greedy set was returned."""


@dataclass(frozen=True)
class DriverSet:
    """A set of driver states together with its validity certificate.

    ``valid`` means every cycle of the state graph is reachable from some
    driver.  On an invalid set, ``uncovered_witness`` is one concrete
    unreached cycle and ``nontrivial_unreachable_components`` lists every
    strongly connected component that still holds an unreached cycle.
    ``minimal`` is set only by the exact solver: removing any driver from
    such a set breaks validity.
    """

    drivers: frozenset[str]
    valid: bool
    minimal: bool
    uncovered_witness: tuple[tuple[str, str], ...] | None
    nontrivial_unreachable_components: tuple[frozenset[str], ...]

    @property
    def size(self) -> int:
        return len(self.drivers)

    def sorted_drivers(self) -> list[str]:
        return sorted(self.drivers, key=vertex_index)

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class BPattern:
    """Input pattern induced by a driver set.

    shared:      one column driving every driver row;
    per_driver:  one column per driver, ordered by ascending state index.
    """

    mode: Literal["shared", "per_driver"]
    pattern: PatternMatrix


def _state_indices(pattern_a: PatternMatrix, drivers: Iterable[str]) -> list[int]:
    n = pattern_a.n_rows
    out = []
    for name in drivers:
        if not isinstance(name, str) or not name.startswith("x"):
            raise ValueError(f"driver vertices must be states, got {name!r}")
        idx = vertex_index(name)
        if idx > n:
            raise ValueError(f"unknown vertex {name!r} (pattern has {n} states)")
        out.append(idx)
    return sorted(set(out))


def validate_driver_set(pattern_a: PatternMatrix, drivers: Iterable[str]) -> DriverSet:
    """Check a driver set: form the subgraph of states unreachable from the
    drivers and require it to be acyclic.  One input column wired to every
    driver reaches exactly what the drivers reach, so this is the
    zero-controllability test of that pair."""
    if not pattern_a.is_square:
        raise ValueError("driver validation needs a square state pattern")
    names = [state_name(i) for i in _state_indices(pattern_a, drivers)]
    shared = build_b_pattern(pattern_a.n_rows, names, "shared").pattern
    report = is_generically_zero_controllable(pattern_a, shared)
    return DriverSet(
        drivers=frozenset(names),
        valid=report.verdict,
        minimal=False,
        uncovered_witness=report.cycle_witness,
        nontrivial_unreachable_components=report.nontrivial_unreachable_components,
    )


# --- condensation-level cover problem -------------------------------------
#
# Any two vertices of a strongly connected component reach exactly the same
# set of vertices, so driver search runs over components, not states.  Each
# candidate component covers the nontrivial ("target") components reachable
# from it; a valid driver set is a cover of all targets, and every component
# is represented by its smallest member when reporting concrete drivers.


@dataclass(frozen=True)
class _CoverProblem:
    reps: tuple[int, ...]        # candidate component -> smallest state index
    coverage: tuple[int, ...]    # candidate component -> bitmask over targets
    members: tuple[tuple[int, ...], ...]  # candidate -> sorted member states
    full_mask: int
    n_targets: int


def _cover_problem(pattern_a: PatternMatrix) -> _CoverProblem:
    scc = scc_decompose(build_graph(pattern_a))
    targets = [k for k, nt in enumerate(scc.nontrivial) if nt]
    mask_of = [0] * len(scc.components)
    for t, k in enumerate(targets):
        mask_of[k] = 1 << t
    for a in scc._sinks_first:  # successors' masks are final before a's
        for b in scc._successors[a]:
            mask_of[a] |= mask_of[b]

    # components are numbered by smallest member, so candidates come out
    # sorted by representative
    candidates = [k for k, mask in enumerate(mask_of) if mask]
    members = tuple(tuple(sorted(vertex_index(v) for v in scc.components[k])) for k in candidates)
    return _CoverProblem(
        reps=tuple(m[0] for m in members),
        coverage=tuple(mask_of[k] for k in candidates),
        members=members,
        full_mask=(1 << len(targets)) - 1,
        n_targets=len(targets),
    )


def _coverers(problem: _CoverProblem, allowed: frozenset[int], uncovered: int) -> dict[int, list[int]]:
    """For each uncovered target bit, the allowed candidates covering it."""
    by_target: dict[int, list[int]] = {}
    for t in range(problem.n_targets):
        bit = 1 << t
        if uncovered & bit:
            by_target[t] = [c for c in sorted(allowed) if problem.coverage[c] & bit]
    return by_target


def _lower_bound(problem: _CoverProblem, allowed: frozenset[int], uncovered: int) -> int:
    """Greedy family of targets no two of which share an allowed coverer;
    each family member forces one distinct pick."""
    used: set[int] = set()
    bound = 0
    by_target = _coverers(problem, allowed, uncovered)
    for t in sorted(by_target, key=lambda t: len(by_target[t])):
        coverers = by_target[t]
        if not coverers:
            continue  # infeasible target; caller notices separately
        if not used.intersection(coverers):
            used.update(coverers)
            bound += 1
    return bound


def _min_cover(
    problem: _CoverProblem,
    allowed: frozenset[int],
    uncovered: int,
    budget: int,
) -> list[int] | None:
    """Smallest cover of `uncovered` using `allowed` candidates, or None when
    no cover of size <= budget exists.  Deterministic branch and bound."""
    if uncovered == 0:
        return []
    if budget <= 0:
        return None
    by_target = _coverers(problem, allowed, uncovered)
    if any(not cs for cs in by_target.values()):
        return None
    if _lower_bound(problem, allowed, uncovered) > budget:
        return None
    # branch on the scarcest target
    t = min(by_target, key=lambda t: (len(by_target[t]), t))
    best: list[int] | None = None
    branch_allowed = set(allowed)
    for c in sorted(by_target[t], key=lambda c: (-bin(problem.coverage[c]).count("1"), problem.reps[c])):
        branch_allowed.discard(c)  # later branches must not reuse c
        cap = budget - 1 if best is None else len(best) - 2
        sub = _min_cover(
            problem,
            frozenset(branch_allowed),
            uncovered & ~problem.coverage[c],
            cap,
        )
        if sub is not None:
            best = [c] + sub
            if len(best) == 1:
                break
    return best


def _lex_smallest_cover(problem: _CoverProblem, size: int) -> list[int]:
    """The minimum cover whose sorted representative tuple is lexicographically
    smallest.  Fixes members in ascending representative order, keeping each
    prefix feasible; remaining picks are restricted to larger representatives."""
    chosen: list[int] = []
    uncovered = problem.full_mask
    start = 0
    while uncovered:
        for c in range(start, len(problem.reps)):
            rest = frozenset(range(c + 1, len(problem.reps)))
            sub = _min_cover(
                problem, rest, uncovered & ~problem.coverage[c], size - len(chosen) - 1
            )
            if sub is not None:
                chosen.append(c)
                uncovered &= ~problem.coverage[c]
                start = c + 1
                break
        else:  # pragma: no cover - guarded by caller computing `size` exactly
            raise AssertionError("no cover at the announced optimum size")
    return chosen


def _enumerate_min_covers(problem: _CoverProblem, size: int) -> list[frozenset[int]]:
    """All covers of exactly the optimum size, each found once."""
    out: list[frozenset[int]] = []

    def recurse(allowed: frozenset[int], uncovered: int, budget: int, prefix: tuple[int, ...]):
        if uncovered == 0:
            out.append(frozenset(prefix))
            return
        if budget == 0:
            return
        by_target = _coverers(problem, allowed, uncovered)
        if any(not cs for cs in by_target.values()):
            return
        t = min(by_target, key=lambda t: (len(by_target[t]), t))
        remaining = set(allowed)
        for c in sorted(by_target[t], key=lambda c: problem.reps[c]):
            remaining.discard(c)
            recurse(
                frozenset(remaining), uncovered & ~problem.coverage[c], budget - 1, prefix + (c,)
            )

    recurse(frozenset(range(len(problem.reps))), problem.full_mask, size, ())
    return out


def _greedy_cover(problem: _CoverProblem) -> list[int]:
    """Representatives picked by the greedy heuristic."""
    chosen = []
    uncovered = problem.full_mask
    while uncovered:
        best = max(
            range(len(problem.reps)),
            key=lambda c: (bin(problem.coverage[c] & uncovered).count("1"), -problem.reps[c]),
        )
        if problem.coverage[best] & uncovered == 0:  # pragma: no cover
            raise AssertionError("greedy stalled; targets are always self-coverable")
        chosen.append(problem.reps[best])
        uncovered &= ~problem.coverage[best]
    return chosen


def _as_driver_set(pattern_a: PatternMatrix, indices: Iterable[int], minimal: bool) -> DriverSet:
    checked = validate_driver_set(pattern_a, [state_name(i) for i in indices])
    return replace(checked, minimal=minimal)


def greedy_driver_set(pattern_a: PatternMatrix) -> DriverSet:
    """Valid driver set from the classic greedy cover heuristic: repeatedly
    take the component covering the most still-uncovered cycles.  Size may
    exceed the true minimum; the minimal flag stays unset."""
    return _as_driver_set(pattern_a, _greedy_cover(_cover_problem(pattern_a)), minimal=False)


def minimal_driver_set(
    pattern_a: PatternMatrix, *, exact_cap: int = DEFAULT_EXACT_CAP
) -> DriverSet:
    """A minimum-cardinality valid driver set.

    Exact branch-and-bound over condensation components; among all optima the
    lexicographically smallest vertex set (by ascending state index) is
    returned, with the minimal flag set.  Instances with more than
    ``exact_cap`` candidate components fall back to the greedy heuristic with
    a warning and the minimal flag unset.
    """
    problem = _cover_problem(pattern_a)
    if problem.n_targets == 0:
        return _as_driver_set(pattern_a, (), minimal=True)
    if len(problem.reps) > exact_cap:
        warnings.warn(
            f"{len(problem.reps)} candidate components exceed the exact-search cap "
            f"of {exact_cap}; returning a greedy (possibly non-minimal) driver set",
            ExactSearchSkipped,
        )
        return _as_driver_set(pattern_a, _greedy_cover(problem), minimal=False)
    everything = frozenset(range(len(problem.reps)))
    optimum = _min_cover(problem, everything, problem.full_mask, problem.n_targets)
    assert optimum is not None  # every target covers itself
    chosen = _lex_smallest_cover(problem, len(optimum))
    return _as_driver_set(pattern_a, (problem.reps[c] for c in chosen), minimal=True)


def enumerate_minimal_driver_sets(
    pattern_a: PatternMatrix, limit: int = 100, *, exact_cap: int = DEFAULT_EXACT_CAP
) -> list[DriverSet]:
    """All minimum-cardinality valid driver sets, lexicographically sorted,
    truncated to ``limit``.

    Every vertex of a strongly connected component is interchangeable as a
    driver, so each minimum component cover expands into the product of its
    components' member lists.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    problem = _cover_problem(pattern_a)
    if problem.n_targets == 0:
        return [_as_driver_set(pattern_a, (), minimal=True)]
    if len(problem.reps) > exact_cap:
        warnings.warn(
            f"{len(problem.reps)} candidate components exceed the exact-search cap "
            f"of {exact_cap}; enumeration would not be exhaustive, returning the "
            "greedy driver set only",
            ExactSearchSkipped,
        )
        return [_as_driver_set(pattern_a, _greedy_cover(problem), minimal=False)]
    everything = frozenset(range(len(problem.reps)))
    optimum = _min_cover(problem, everything, problem.full_mask, problem.n_targets)
    assert optimum is not None
    covers = _enumerate_min_covers(problem, len(optimum))
    expanded: set[tuple[int, ...]] = set()
    for cover in covers:
        for pick in itertools.product(*(problem.members[c] for c in sorted(cover))):
            expanded.add(tuple(sorted(pick)))
    return [
        _as_driver_set(pattern_a, indices, minimal=True)
        for indices in sorted(expanded)[:limit]
    ]


def build_b_pattern(
    n: int, drivers: Iterable[str], mode: Literal["shared", "per_driver"]
) -> BPattern:
    """Input pattern wiring the drivers: one shared column, or one column per
    driver in ascending state order.  An empty driver set yields an n-by-0
    pattern."""
    if mode not in ("shared", "per_driver"):
        raise ValueError(f"mode must be 'shared' or 'per_driver', got {mode!r}")
    rows = []
    for name in drivers:
        if not isinstance(name, str) or not name.startswith("x"):
            raise ValueError(f"driver vertices must be states, got {name!r}")
        idx = vertex_index(name)
        if not 1 <= idx <= n:
            raise ValueError(f"driver row {idx} out of range 1..{n}")
        rows.append(idx)
    rows = sorted(set(rows))
    if not rows:
        return BPattern(mode, PatternMatrix.zeros(n, 0))
    if mode == "shared":
        entries = frozenset((i, 1) for i in rows)
        return BPattern(mode, PatternMatrix(n, 1, entries))
    entries = frozenset((i, k) for k, i in enumerate(rows, start=1))
    return BPattern(mode, PatternMatrix(n, len(rows), entries))
