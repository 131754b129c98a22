"""Driver-node selection: which states need a direct input so that every
cycle of the state graph becomes reachable, making the system generically
steerable to zero."""

from __future__ import annotations

import heapq
import itertools
import sys
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Literal, Sequence

from .graph import SystemGraph, _bits, _obstruction, _reach_states, _state_ids, build_graph, sort_vertices, state_name
from .patterns import PatternMatrix

#: Above this many candidate components the exact search hands over to the
#: greedy heuristic.
DEFAULT_EXACT_CAP = 25

_EVERY_CANDIDATE = -1  # candidate sets are int bitmasks; this one admits all of them


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
        return sort_vertices(self.drivers)

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


def _driver_set(graph: SystemGraph, indices: Sequence[int], minimal: bool) -> DriverSet:
    """The drivers with their certificate; every search result is re-checked here."""
    witness, blocking = _obstruction(graph, _reach_states(graph, indices))
    return DriverSet(
        drivers=frozenset(state_name(i) for i in indices),
        valid=not blocking,
        minimal=minimal,
        uncovered_witness=witness,
        nontrivial_unreachable_components=blocking,
    )


def validate_driver_set(pattern_a: PatternMatrix, drivers: Iterable[str]) -> DriverSet:
    """Check a driver set: form the subgraph of states unreachable from the
    drivers and require it to be acyclic, the same obstruction test as
    generic zero controllability with the drivers as the reached seeds."""
    graph = build_graph(pattern_a)
    return _driver_set(graph, _state_ids(graph.n_states, drivers, "driver vertices must be states"), minimal=False)


# --- coverage classes ------------------------------------------------------
#
# A state covers the nontrivial ("target") components it reaches, and a valid
# driver set is a cover of all targets.  States with equal coverage, such as
# the states of one component, are interchangeable drivers, so the search runs
# over coverage classes and a minimum cover holds at most one state of each.
# Classes are expanded into concrete states only at the output.


@dataclass(frozen=True)
class _CoverProblem:
    graph: SystemGraph
    coverage: tuple[int, ...]    # class -> bitmask over targets; classes ascend by smallest state
    members: tuple[tuple[int, ...], ...]  # class -> its states, ascending
    full_mask: int
    components: int              # candidate components, the unit of the exact-search cap

    @cached_property
    def coverers(self) -> tuple[int, ...]:
        """Target -> bitmask over the classes covering it.  Its size is the
        sum of all coverages, quadratic on a long chain of self-loops, so it
        is built only when an exact search first asks for it."""
        out = [0] * self.full_mask.bit_length()
        for c, mask in enumerate(self.coverage):
            for t in _bits(mask):
                out[t] |= 1 << c
        return tuple(out)


def _cover_problem(pattern_a: PatternMatrix) -> _CoverProblem:
    graph = build_graph(pattern_a)
    scc = graph.condensation
    targets = [k for k, nt in enumerate(scc.nontrivial) if nt]
    mask_of = [0] * len(scc.nontrivial)
    for t, k in enumerate(targets):
        mask_of[k] = 1 << t
    scc._fold(mask_of)

    classes: dict[int, list[int]] = {}  # keys in order of first state
    for v in range(1, graph.n_states + 1):
        mask = mask_of[scc._comp_of[v]]
        if mask:
            classes.setdefault(mask, []).append(v)
    return _CoverProblem(
        graph=graph,
        coverage=tuple(classes),
        members=tuple(map(tuple, classes.values())),
        full_mask=(1 << len(targets)) - 1,
        components=sum(map(bool, mask_of)),
    )


def _node(problem: _CoverProblem, allowed: int, uncovered: int, budget: int) -> list[int] | None:
    """Each uncovered target's allowed coverers, in ascending target order
    stably sorted scarcest first; None when a target has none, or when a
    greedy packing finds more than `budget` targets that pairwise share no
    coverer (each forces one distinct pick)."""
    by_target, coverers_of = [], problem.coverers
    while uncovered:
        low = uncovered & -uncovered
        coverers = coverers_of[low.bit_length() - 1] & allowed
        if not coverers:
            return None
        by_target.append(coverers)
        uncovered ^= low
    by_target.sort(key=int.bit_count)
    used = bound = 0
    for coverers in by_target:
        if not coverers & used:
            used |= coverers
            bound += 1
    return None if bound > budget else by_target


def _min_covers(
    problem: _CoverProblem, allowed: int, uncovered: int, budget: int
) -> Iterator[tuple[int, ...]]:
    """All covers of `uncovered` by at most `budget` allowed candidates, each
    found once; at the optimum budget, every minimum cover."""
    if uncovered == 0:
        yield ()
        return
    by_target = _node(problem, allowed, uncovered, budget)
    if by_target is None:
        return
    # branch on the scarcest target (the lowest on ties), widest coverers
    # first so that a probe stops early.  Column dominance: a coverer whose
    # gain lies inside a failed earlier sibling's fails too, as swapping in
    # the wider one keeps any cover a cover and that branch allowed more
    # candidates, so skipping it loses no cover.
    failed: list[int] = []
    for c in sorted(_bits(by_target[0]), key=lambda c: -problem.coverage[c].bit_count()):
        allowed &= ~(1 << c)  # later branches must not reuse c
        gain = problem.coverage[c] & uncovered
        if any(gain | wider == wider for wider in failed):
            continue
        found = False
        for rest in _min_covers(problem, allowed, uncovered & ~gain, budget - 1):
            found = True
            yield (c,) + rest
        if not found:
            failed.append(gain)


def _feasible(problem: _CoverProblem, allowed: int, uncovered: int, budget: int) -> bool:
    """Whether some cover of `uncovered` by at most `budget` allowed candidates
    exists: the search stops at its first cover."""
    return next(_min_covers(problem, allowed, uncovered, budget), None) is not None


def _lex_smallest_cover(problem: _CoverProblem, size: int) -> list[int]:
    """The minimum cover whose sorted representative tuple is lexicographically
    smallest.  Fixes members in ascending representative order, keeping each
    prefix feasible; remaining picks are restricted to larger representatives."""
    chosen: list[int] = []
    uncovered = problem.full_mask
    start = 0
    while uncovered:
        budget = size - len(chosen) - 1
        for c in range(start, len(problem.coverage)):
            rest = _EVERY_CANDIDATE << (c + 1)  # the candidates after c
            if _feasible(problem, rest, uncovered & ~problem.coverage[c], budget):
                chosen.append(c)
                uncovered &= ~problem.coverage[c]
                start = c + 1
                break
        else:  # pragma: no cover - guarded by caller computing `size` exactly
            raise AssertionError("no cover at the announced optimum size")
    return chosen


def _picks(groups: list[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Every choice of one state from each of the disjoint sorted groups, as
    ascending tuples in lex order.  Each step moves the largest picked state
    that is not last in its group to its successor there, and resets every
    group whose pick lay above it to its first state past it."""
    picked = [g[0] for g in groups]
    while True:
        yield tuple(sorted(picked))
        movable = [v for g, v in zip(groups, picked) if v < g[-1]]
        if not movable:
            return
        top = max(movable)
        picked = [v if v < top else g[bisect_right(g, top)] for g, v in zip(groups, picked)]


def _greedy_cover(problem: _CoverProblem) -> list[int]:
    """Representatives picked by the greedy heuristic."""
    chosen = []
    uncovered = problem.full_mask
    while uncovered:
        # candidates ascend by representative, so -c breaks ties towards the smallest
        best = max(
            range(len(problem.coverage)),
            key=lambda c: ((problem.coverage[c] & uncovered).bit_count(), -c),
        )
        if problem.coverage[best] & uncovered == 0:  # pragma: no cover
            raise AssertionError("greedy stalled; targets are always self-coverable")
        chosen.append(problem.members[best][0])
        uncovered &= ~problem.coverage[best]
    return chosen


def greedy_driver_set(pattern_a: PatternMatrix) -> DriverSet:
    """Valid driver set from the classic greedy cover heuristic: repeatedly
    take the class of states covering the most still-uncovered cycles.  Its
    size may exceed the true minimum; the minimal flag stays unset."""
    problem = _cover_problem(pattern_a)
    return _driver_set(problem.graph, _greedy_cover(problem), minimal=False)


def _exact_search(
    pattern_a: PatternMatrix, exact_cap: int, fallback: str
) -> tuple[_CoverProblem, int | DriverSet]:
    """The cover problem with its optimum cover size, or with the greedy set
    (and a warning ending in ``fallback``) above the exact-search cap."""
    if exact_cap < 0:
        raise ValueError(f"exact_cap must be >= 0, got {exact_cap}")
    problem = _cover_problem(pattern_a)
    if problem.components > exact_cap:
        warnings.warn(
            f"{problem.components} candidate components exceed the exact-search cap "
            f"of {exact_cap}; {fallback}",
            ExactSearchSkipped,
        )
        return problem, _driver_set(problem.graph, _greedy_cover(problem), minimal=False)
    # iterative deepening: the first budget that admits a cover is the optimum
    size = 0
    while not _feasible(problem, _EVERY_CANDIDATE, problem.full_mask, size):
        size += 1
    return problem, size


def minimal_driver_set(
    pattern_a: PatternMatrix, *, exact_cap: int = DEFAULT_EXACT_CAP
) -> DriverSet:
    """A minimum-cardinality valid driver set.

    Exact branch-and-bound over coverage classes; among all optima the
    lexicographically smallest vertex set (by ascending state index) is
    returned, with the minimal flag set.  Instances with more than
    ``exact_cap`` candidate components fall back to the greedy heuristic with
    a warning and the minimal flag unset.
    """
    problem, size = _exact_search(
        pattern_a, exact_cap, "returning a greedy (possibly non-minimal) driver set"
    )
    if isinstance(size, DriverSet):
        return size
    chosen = _lex_smallest_cover(problem, size)
    return _driver_set(problem.graph, [problem.members[c][0] for c in chosen], minimal=True)


def enumerate_minimal_driver_sets(
    pattern_a: PatternMatrix, limit: int = 100, *, exact_cap: int = DEFAULT_EXACT_CAP
) -> list[DriverSet]:
    """All minimum-cardinality valid driver sets, lexicographically sorted,
    truncated to ``limit``.

    States that reach the same cycles are interchangeable as drivers, so
    each minimum cover of coverage classes expands into one state from each
    of its classes.  The expansions are produced lazily in lex order and
    merged, so the cost follows ``limit`` and the number of class covers,
    not the number of sets.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    problem, size = _exact_search(
        pattern_a, exact_cap,
        "enumeration would not be exhaustive, returning the greedy driver set only",
    )
    if isinstance(size, DriverSet):
        return [size]
    covers = _min_covers(problem, _EVERY_CANDIDATE, problem.full_mask, size)
    expansions = heapq.merge(*(
        zip(_picks([problem.members[c] for c in cover]), itertools.repeat(k))
        for k, cover in enumerate(covers)
    ))
    # the picks of one cover reach the same targets: check each cover once
    checked: dict[int, DriverSet] = {}
    listed = []
    for indices, k in itertools.islice(expansions, min(limit, sys.maxsize)):  # a larger limit means all
        if k in checked:
            listed.append(replace(checked[k], drivers=frozenset(state_name(i) for i in indices)))
        else:
            listed.append(checked.setdefault(k, _driver_set(problem.graph, indices, minimal=True)))
    return listed


def build_b_pattern(
    n: int, drivers: Iterable[str], mode: Literal["shared", "per_driver"]
) -> BPattern:
    """Input pattern wiring the drivers: one shared column, or one column per
    driver in ascending state order.  An empty driver set yields an n-by-0
    pattern."""
    if mode not in ("shared", "per_driver"):
        raise ValueError(f"mode must be 'shared' or 'per_driver', got {mode!r}")
    rows = _state_ids(n, drivers, "driver vertices must be states")
    if not rows:
        return BPattern(mode, PatternMatrix.zeros(n, 0))
    if mode == "shared":
        entries = frozenset((i, 1) for i in rows)
        return BPattern(mode, PatternMatrix(n, 1, entries))
    entries = frozenset((i, k) for k, i in enumerate(rows, start=1))
    return BPattern(mode, PatternMatrix(n, len(rows), entries))
