"""Brute-force reference implementations.

Deliberately written with different algorithms than the package (bitmask
dynamic programming, plain BFS/DFS, exhaustive subset scans) so the two
sides of every check stay independent.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from zerocontrol import PatternMatrix
from zerocontrol.graph import state_name


def max_matching_size(n_rows: int, cols_of_row, n_cols: int) -> int:
    """Maximum bipartite matching via DP over column bitmasks."""
    masks = []
    for r in range(1, n_rows + 1):
        mask = 0
        for c in cols_of_row(r):
            mask |= 1 << (c - 1)
        masks.append(mask)

    @lru_cache(maxsize=None)
    def best(row: int, used: int) -> int:
        if row == len(masks):
            return 0
        out = best(row + 1, used)  # leave this row unmatched
        free = masks[row] & ~used
        while free:
            bit = free & -free
            free ^= bit
            out = max(out, 1 + best(row + 1, used | bit))
        return out

    result = best(0, 0)
    best.cache_clear()
    return result


def oracle_term_rank(pattern: PatternMatrix) -> int:
    cols = {}
    for i, j in pattern.nonzeros:
        cols.setdefault(i, []).append(j)
    return max_matching_size(pattern.n_rows, lambda r: cols.get(r, ()), pattern.n_cols)


def has_perfect_matching(rows: tuple[int, ...], entries: frozenset) -> bool:
    """Perfect matching on the principal sub-pattern rows x rows."""
    k = len(rows)
    pos = {v: t for t, v in enumerate(rows)}
    masks = []
    for i in rows:
        mask = 0
        for v in rows:
            if (i, v) in entries:
                mask |= 1 << pos[v]
        masks.append(mask)

    @lru_cache(maxsize=None)
    def fill(row: int, used: int) -> bool:
        if row == k:
            return True
        free = masks[row] & ~used
        while free:
            bit = free & -free
            free ^= bit
            if fill(row + 1, used | bit):
                return True
        return False

    result = fill(0, 0)
    fill.cache_clear()
    return result


def oracle_nu(pattern: PatternMatrix) -> int:
    """Exhaustive disjoint-cycle cover size: the largest vertex subset whose
    principal sub-pattern has a perfect matching."""
    n = pattern.n_rows
    vertices = list(range(1, n + 1))
    for size in range(n, 0, -1):
        for subset in itertools.combinations(vertices, size):
            if has_perfect_matching(subset, pattern.nonzeros):
                return size
    return 0


def oracle_acyclic(pattern: PatternMatrix) -> bool:
    """DFS three-coloring on the state graph (edge x_j -> x_i per entry)."""
    n = pattern.n_rows
    succ = [[] for _ in range(n + 1)]
    for i, j in pattern.nonzeros:
        succ[j].append(i)
    color = [0] * (n + 1)  # 0 white, 1 grey, 2 black

    for start in range(1, n + 1):
        if color[start]:
            continue
        stack = [(start, iter(succ[start]))]
        color[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 1:
                    return False
                if color[w] == 0:
                    color[w] = 1
                    stack.append((w, iter(succ[w])))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return True


def oracle_reachable(pattern: PatternMatrix, sources: set[int]) -> set[int]:
    """Plain BFS over state indices; sources count as reached."""
    succ = [[] for _ in range(pattern.n_rows + 1)]
    for i, j in pattern.nonzeros:
        succ[j].append(i)
    reached = set(sources)
    frontier = list(sources)
    while frontier:
        v = frontier.pop()
        for w in succ[v]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached


def oracle_driver_set_valid(pattern: PatternMatrix, drivers: set[int]) -> bool:
    """A driver set is valid when the states it cannot reach induce an acyclic
    sub-pattern."""
    reached = oracle_reachable(pattern, drivers)
    rest = [v for v in range(1, pattern.n_rows + 1) if v not in reached]
    induced = frozenset(
        (i, j) for i, j in pattern.nonzeros if i not in reached and j not in reached
    )
    sub = PatternMatrix(pattern.n_rows, pattern.n_rows, induced)
    return oracle_acyclic(sub) if rest else True


def oracle_minimum_driver_sets(pattern: PatternMatrix) -> tuple[int, list[frozenset[int]]]:
    """Exhaustive scan over all vertex subsets by increasing size."""
    n = pattern.n_rows
    vertices = list(range(1, n + 1))
    for size in range(0, n + 1):
        found = [
            frozenset(subset)
            for subset in itertools.combinations(vertices, size)
            if oracle_driver_set_valid(pattern, set(subset))
        ]
        if found:
            return size, found
    raise AssertionError("the full vertex set is always valid")


def oracle_find_cycle(graph, within=None):
    """Cycle witness by brute force: the smallest self-loop in ``within``,
    else a BFS from every allowed vertex in ascending order until one leads
    back to its start (successors visited in ascending order)."""
    allowed = set(range(1, graph.n_states + 1))
    if within is not None:
        allowed = {int(name[1:]) for name in within}
    for v in sorted(allowed):
        if (v, v) in graph.state_edges:
            return ((state_name(v), state_name(v)),)
    for start in sorted(allowed):
        parent = {start: 0}
        queue = [start]
        while queue:
            next_queue = []
            for v in queue:
                for w in graph.state_successors[v]:
                    if w not in allowed:
                        continue
                    if w == start:
                        rev = [v]
                        x = v
                        while parent[x] != 0:
                            x = parent[x]
                            rev.append(x)
                        cycle = rev[::-1] + [start]
                        return tuple(
                            (state_name(a), state_name(b)) for a, b in zip(cycle, cycle[1:])
                        )
                    if w not in parent:
                        parent[w] = v
                        next_queue.append(w)
            queue = next_queue
    return None
