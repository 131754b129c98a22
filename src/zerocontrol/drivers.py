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

#: Above this many coverage classes in one independent block of targets, the
#: exact search hands over to the greedy heuristic.
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

    def __post_init__(self) -> None:
        if self.mode not in ("shared", "per_driver"):
            raise ValueError(f"mode must be 'shared' or 'per_driver', got {self.mode!r}")


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
# A driver set is valid when it reaches every nontrivial component, so exactly
# when it reaches the root ones, below no other.  These are the targets, and a
# valid driver set is a cover of them.  States with equal coverage, such as the
# states of one component, are interchangeable drivers, so the search runs over
# coverage classes and a minimum cover holds at most one state of each.  A
# class that is the only coverer of a target is forced; the targets left split
# into independent blocks, each searched alone.  Classes are expanded into
# concrete states only at the output.


@dataclass(frozen=True)
class _CoverProblem:
    graph: SystemGraph
    coverage: tuple[int, ...]    # class -> bitmask over targets; classes ascend by smallest state
    members: tuple[tuple[int, ...], ...]  # class -> its states, ascending
    full_mask: int

    @cached_property
    def coverers(self) -> tuple[int, ...]:
        """Target -> bitmask over the classes covering it.  Its size is the
        sum of all coverages, quadratic where they nest, so it is built only
        when an exact search first asks for it."""
        out = [0] * self.full_mask.bit_length()
        for c, mask in enumerate(self.coverage):
            for t in _bits(mask):
                out[t] |= 1 << c
        return tuple(out)


def _cover_problem(pattern_a: PatternMatrix) -> _CoverProblem:
    graph = build_graph(pattern_a)
    scc = graph.condensation
    below = [False] * len(scc.nontrivial)  # below some nontrivial component
    for a in reversed(scc._sinks_first):
        if scc.nontrivial[a] or below[a]:
            for b in scc._successors[a]:
                below[b] = True
    targets = [k for k, nt in enumerate(scc.nontrivial) if nt and not below[k]]
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
    )


def _kernel(problem: _CoverProblem) -> tuple[list[int], list[tuple[int, int]]]:
    """The forced classes, each the only coverer of some target, and the
    blocks: the connected parts of the incidence between the targets left and
    the classes that gain some, as (classes, targets) bitmasks.  A union-find
    over targets holds each part at its root: a class costs one find per part."""
    once = twice = 0
    for mask in problem.coverage:
        once, twice = once | mask, twice | once & mask
    forced = [c for c, mask in enumerate(problem.coverage) if mask & ~twice]
    uncovered = problem.full_mask
    for c in forced:
        uncovered &= ~problem.coverage[c]
    up = list(range(uncovered.bit_length()))
    parts: dict[int, tuple[int, int]] = {}  # root target -> its part

    def root(t: int) -> int:
        while up[t] != t:
            up[t] = t = up[up[t]]
        return t

    for c, mask in enumerate(problem.coverage):
        classes, targets, rest = 1 << c, 0, mask & uncovered
        while rest:  # join the parts of the targets the class gains, under the first one's root
            t = root((rest & -rest).bit_length() - 1)
            top = top if targets else t
            joined, more = parts.pop(t, (0, 1 << t))
            up[t] = top
            classes, targets = classes | joined, targets | more
            rest &= ~targets
        if targets:
            parts[top] = (classes, targets)
    return forced, list(parts.values())


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
    by_target = _node(problem, allowed, uncovered, budget) if budget else None
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


def _lex_smallest_cover(problem: _CoverProblem, allowed: int, uncovered: int, size: int) -> list[int]:
    """The minimum cover of `uncovered` by `allowed` candidates whose sorted
    representative tuple is lexicographically smallest.  Fixes members in
    ascending representative order, keeping each prefix feasible and skipping
    a candidate that gains nothing; remaining picks come after the last one."""
    chosen: list[int] = []
    while uncovered:
        budget = size - len(chosen) - 1
        for c in _bits(allowed):
            allowed ^= 1 << c  # later picks come after c
            gain = problem.coverage[c] & uncovered
            if gain and _feasible(problem, allowed, uncovered & ~gain, budget):
                chosen.append(c)
                uncovered &= ~gain
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
) -> tuple[_CoverProblem, list[int], list[tuple[int, int, int]]] | DriverSet:
    """The cover problem, its forced classes and its blocks, each as (classes,
    targets, optimum size); or the greedy set, with a warning ending in
    ``fallback``, when a block has more classes than the exact-search cap."""
    if exact_cap < 0:
        raise ValueError(f"exact_cap must be >= 0, got {exact_cap}")
    problem = _cover_problem(pattern_a)
    forced, blocks = _kernel(problem)
    largest = max((classes.bit_count() for classes, _ in blocks), default=0)
    if largest > exact_cap:
        warnings.warn(
            f"{largest} coverage classes in one independent block exceed the exact-search cap "
            f"of {exact_cap}; {fallback}",
            ExactSearchSkipped,
        )
        return _driver_set(problem.graph, _greedy_cover(problem), minimal=False)
    # iterative deepening: the first budget that admits a cover is a block's optimum
    return problem, forced, [
        (*block, next(size for size in itertools.count() if _feasible(problem, *block, size))) for block in blocks
    ]


def minimal_driver_set(
    pattern_a: PatternMatrix, *, exact_cap: int = DEFAULT_EXACT_CAP
) -> DriverSet:
    """A minimum-cardinality valid driver set.

    Exact branch-and-bound over coverage classes; among all optima the
    lexicographically smallest vertex set (by ascending state index) is
    returned, with the minimal flag set.  Blocks share no class, so that set
    joins the forced classes and each block's lex-smallest cover.  Instances
    with a block of more than ``exact_cap`` coverage classes fall back to the
    greedy heuristic with a warning and the minimal flag unset.
    """
    search = _exact_search(pattern_a, exact_cap, "returning a greedy (possibly non-minimal) driver set")
    if isinstance(search, DriverSet):
        return search
    problem, forced, blocks = search
    chosen = forced + [c for block in blocks for c in _lex_smallest_cover(problem, *block)]
    return _driver_set(problem.graph, [problem.members[c][0] for c in chosen], minimal=True)


def enumerate_minimal_driver_sets(
    pattern_a: PatternMatrix, limit: int = 100, *, exact_cap: int = DEFAULT_EXACT_CAP
) -> list[DriverSet]:
    """All minimum-cardinality valid driver sets, lexicographically sorted,
    truncated to ``limit``.

    The minimum class covers are the forced classes with one minimum cover
    of each block, and each expands into one state from each of its classes
    (states that reach the same cycles are interchangeable drivers).  The
    expansions are produced lazily in lex order and merged, so the cost
    follows ``limit`` and the number of class covers, not the number of sets.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    search = _exact_search(
        pattern_a, exact_cap,
        "enumeration would not be exhaustive, returning the greedy driver set only",
    )
    if isinstance(search, DriverSet):
        return [search]
    problem, forced, blocks = search
    covers = itertools.product(*(list(_min_covers(problem, *block)) for block in blocks))
    expansions = heapq.merge(*(
        zip(_picks([problem.members[c] for c in itertools.chain(forced, *parts)]), itertools.repeat(k))
        for k, parts in enumerate(covers)
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
    rows = _state_ids(n, drivers, "driver vertices must be states")
    if not rows:
        return BPattern(mode, PatternMatrix.zeros(n, 0))
    if mode == "shared":
        entries = frozenset((i, 1) for i in rows)
        return BPattern(mode, PatternMatrix(n, 1, entries))
    entries = frozenset((i, k) for k, i in enumerate(rows, start=1))
    return BPattern(mode, PatternMatrix(n, len(rows), entries))
