"""Brute-force reference implementations.

Deliberately written with different algorithms than the package (bitmask
dynamic programming, plain BFS/DFS, exhaustive subset scans) so the two
sides of every check stay independent.
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np

from zerocontrol import numeric
from zerocontrol import (
    Decomposition,
    MonteCarloStats,
    PatternMatrix,
    Realization,
    ValueSpec,
    is_generically_controllable,
    is_generically_zero_controllable,
)
from zerocontrol.fileio import PatternFormatError
from zerocontrol.graph import _input_reach, build_graph, state_name
from zerocontrol.patterns import DuplicateEntryWarning


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


_SIZE_NAMES = {"n": "size 'n'", "m": "input count 'm'"}


def oracle_parse_pattern_file(text: str) -> tuple[PatternMatrix, PatternMatrix | None]:
    """The per-line parser, kept as the reference for the bulk one: every
    line is split and checked in file order."""
    sizes: dict[str, int] = {}  # 'n' and 'm', once declared
    entries: dict[str, set[tuple[int, int]]] = {"a": set(), "b": set()}

    def parse_int(token: str, line_no: int, what: str) -> int:
        digits = token[1:] if token[0] in "+-" else token
        if not (digits.isascii() and digits.isdigit()):  # int() also takes '1_0' and '\u0663'
            raise PatternFormatError(line_no, f"{what} must be an integer, got {token!r}")
        return int(token)

    # lines end at '\n', '\r\n' or '\r' only; str.splitlines also breaks at
    # '\x0b', '\x0c', '\x1c'-'\x1e', '\x85', '\u2028' and '\u2029'
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]

        if keyword in _SIZE_NAMES:
            if keyword == "m" and "n" not in sizes:
                raise PatternFormatError(line_no, "'m' before the size declaration 'n'")
            if keyword in sizes:
                raise PatternFormatError(line_no, f"{_SIZE_NAMES[keyword]} declared twice")
            if len(tokens) != 2:
                raise PatternFormatError(line_no, f"expected '{keyword} <int>', got {line!r}")
            size = sizes[keyword] = parse_int(tokens[1], line_no, keyword)
            if size < 0:
                raise PatternFormatError(line_no, f"{keyword} must be >= 0, got {size}")
        elif keyword in entries:
            if "n" not in sizes:
                raise PatternFormatError(line_no, "entry before the size declaration 'n'")
            if len(tokens) != 3:
                raise PatternFormatError(line_no, f"expected '{keyword} <row> <col>', got {line!r}")
            i = parse_int(tokens[1], line_no, "row")
            j = parse_int(tokens[2], line_no, "column")
            entry = f"'{keyword} {i} {j}'"
            columns = "n" if keyword == "a" else "m"
            if keyword == "b" and not sizes.get("m"):
                raise PatternFormatError(
                    line_no, f"entry {entry} needs a prior 'm' declaration with m >= 1"
                )
            for what, value, bound in (("row", i, "n"), ("column", j, columns)):
                if value < 1:
                    raise PatternFormatError(line_no, f"{what} {value} must be >= 1 in entry {entry}")
                if value > sizes[bound]:
                    raise PatternFormatError(
                        line_no, f"{what} {value} exceeds {bound}={sizes[bound]} in entry {entry}"
                    )
            if (i, j) in entries[keyword]:
                warnings.warn(
                    f"line {line_no}: duplicate entry {entry} collapsed", DuplicateEntryWarning
                )
            entries[keyword].add((i, j))
        else:
            raise PatternFormatError(line_no, f"unknown directive {keyword!r}")

    if "n" not in sizes:
        raise PatternFormatError(None, "missing size declaration 'n'")
    n, m = sizes["n"], sizes.get("m", 0)
    pattern_a = PatternMatrix(n, n, frozenset(entries["a"]))
    pattern_b = PatternMatrix(n, m, frozenset(entries["b"])) if m > 0 else None
    return pattern_a, pattern_b


def oracle_find_cycle(graph, within=None):
    """Cycle witness by brute force: the smallest self-loop in ``within``,
    else a BFS from every allowed vertex in ascending order until one leads
    back to its start (successors visited in ascending order)."""
    allowed = set(range(1, graph.n_states + 1))
    if within is not None:
        allowed = {int(name[1:]) for name in within}
    successors = {v: [] for v in allowed}  # built here, not read off the graph's CSR
    for s, d in sorted(graph.state_edges):
        if s in allowed:
            successors[s].append(d)
    for v in sorted(allowed):
        if (v, v) in graph.state_edges:
            return ((state_name(v), state_name(v)),)
    for start in sorted(allowed):
        parent = {start: 0}
        queue = [start]
        while queue:
            next_queue = []
            for v in queue:
                for w in successors[v]:
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


def oracle_reducible_decomposition(pattern_a, pattern_b=None) -> Decomposition:
    """The reducible decomposition cut with ``submatrix``: the reached states
    ascending, then the rest ascending, and the five blocks of the pair."""
    reached = _input_reach(build_graph(pattern_a, pattern_b))
    reach_idx = [v for v in range(1, pattern_a.n_rows + 1) if reached[v]]
    unreach_idx = [v for v in range(1, pattern_a.n_rows + 1) if not reached[v]]
    m = pattern_b.n_cols if pattern_b is not None else 0
    b = pattern_b if pattern_b is not None else PatternMatrix.zeros(pattern_a.n_rows, 0)
    a21 = pattern_a.submatrix(unreach_idx, reach_idx)
    b2 = b.submatrix(unreach_idx, list(range(1, m + 1)))
    assert not a21.nonzeros and not b2.nonzeros
    return Decomposition(
        tuple(reach_idx + unreach_idx), len(reach_idx), len(unreach_idx),
        pattern_a.submatrix(reach_idx, reach_idx), pattern_a.submatrix(reach_idx, unreach_idx),
        pattern_a.submatrix(unreach_idx, unreach_idx), b.submatrix(reach_idx, list(range(1, m + 1))),
    )


# --- numeric reference: one draw at a time, and rank over the rationals ----------

def oracle_sample_realization(pattern_a, pattern_b=None, seed=20240001, value_spec=None):
    """The scalar draw loop: per entry in sorted position order, A then B, a
    uniform magnitude and then a sign draw."""
    value_spec = ValueSpec() if value_spec is None else value_spec
    rng = np.random.default_rng(seed)
    n = pattern_a.n_rows
    m = pattern_b.n_cols if pattern_b is not None else 0
    a, b = np.zeros((n, n)), np.zeros((n, m))
    for values, pattern in ((a, pattern_a), (b, pattern_b)):
        for i, j in pattern.sorted_entries() if pattern is not None else ():
            magnitude = rng.uniform(value_spec.low, value_spec.high)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            values[i - 1, j - 1] = sign * magnitude
    return Realization(a, b, seed, value_spec)


def oracle_rational_checks(realization):
    """Zero controllability and controllability of a float realization over the rationals: rank [C, A^n] against
    rank C, and rank C against n, for C = [B, AB, ..., A^(n-1) B].  Each entry is read exactly as a
    ``fractions.Fraction`` of ``float.as_integer_ratio``, and each of A and B is scaled to integers by the least
    common multiple of its denominators, which changes neither rank: C's columns scale, and so does A^n.  The
    columns are then eliminated fraction-free, each reduced column divided by the gcd of its entries."""

    def integers(matrix):
        entries = [[Fraction(*x.as_integer_ratio()) for x in row] for row in matrix.tolist()]
        scale = math.lcm(*(x.denominator for row in entries for x in row))
        return [[int(x * scale) for x in row] for row in entries]

    a, b, n, m = integers(realization.a), integers(realization.b), realization.n, realization.m

    def powers(column, count):  # column, A column, ..., A^count column
        yield column
        for _ in range(count):
            column = [sum(x * y for x, y in zip(row, column) if x) for row in a]
            yield column

    basis = []  # (pivot, column): each column is 0 at the pivots before its own

    def grows(column):  # whether the column lies outside the span of the basis, which then takes it
        for pivot, vector in basis:
            if column[pivot]:
                scale, by = vector[pivot], column[pivot]
                column = [scale * x - by * y for x, y in zip(column, vector)]
        divisor = math.gcd(*column)
        if divisor:
            basis.append((next(i for i, x in enumerate(column) if x), [x // divisor for x in column]))
        return bool(divisor)

    for j in range(m):
        for column in powers([row[j] for row in b], n - 1):
            grows(column)
    rank = len(basis)
    zc = not any(grows(list(powers([int(i == j) for i in range(n)], n))[-1]) for j in range(n))
    return zc, rank == n


# --- numeric reference on the reachable split ----------------------------------

def oracle_split(realization):
    """The reached states and the unreached ones on or after an unreached
    cycle, ascending, 0-based, searched out over the realization's nonzeros:
    a BFS from the states that B feeds, then one search per unreached state
    for a walk back to itself, then a BFS from the states on such cycles."""
    a, b = realization.a, realization.b
    n = realization.n

    def closure(sources, allowed):
        seen, frontier = set(), list(sources)
        while frontier:
            v = frontier.pop()
            for w in np.flatnonzero(a[:, v]).tolist():  # entry (w, v) is the edge v -> w
                if w in allowed and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    fed = set(np.flatnonzero(b.any(axis=1)).tolist())
    reached = fed | closure(fed, set(range(n)))
    unreached = set(range(n)) - reached
    on_cycle = {v for v in unreached if v in closure([v], unreached)}
    survivors = on_cycle | closure(on_cycle, unreached)
    return np.array(sorted(reached), dtype=int), np.array(sorted(survivors), dtype=int)


def oracle_gf_pair(pattern_a, pattern_b, seed, stream=None):
    """A trial's pair mod p, as lists of Python ints: the first words of the trial's exact stream (or of
    ``stream(seed)``) give one value per entry, A's entries and then B's, each in (row, column) order, each
    word w taken as 1 + w mod (p - 1)."""
    p = numeric._P
    n = pattern_a.n_rows
    m = pattern_b.n_cols if pattern_b is not None else 0
    entries = [(0, i, j) for i, j in sorted(pattern_a.nonzeros)]
    entries += [(1, i, j) for i, j in sorted(pattern_b.nonzeros if pattern_b is not None else ())]
    words = (np.random.PCG64(np.random.SeedSequence(seed, spawn_key=numeric._GF_KEY)) if stream is None
             else stream(seed)).random_raw(len(entries))
    a, b = [[0] * n for _ in range(n)], [[0] * m for _ in range(n)]
    for (which, i, j), word in zip(entries, words.tolist()):
        (b if which else a)[i - 1][j - 1] = 1 + word % (p - 1)
    return a, b


def oracle_gf_rank(rows, p):
    """Rank mod p of a list of rows of Python ints, by Gaussian elimination."""
    rows, rank = [list(row) for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            if rows[i][col] % p:
                factor = rows[i][col] * inverse % p
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_gf_checks(a, b, p):
    """Zero controllability and controllability of a whole pair mod p: rank [K, A^n] against rank K, and rank K
    against n, for K = [B, AB, ..., A^(n-1) B], each column built by products with A's nonzeros."""
    n, m = len(a), len(b[0]) if b else 0
    nonzeros = [[(j, x) for j, x in enumerate(row) if x] for row in a]

    def times_a(column, count):
        for _ in range(count):
            column = [sum(x * column[j] for j, x in row) % p for row in nonzeros]
        return column

    columns = [times_a([row[i] for row in b], power) for i in range(m) for power in range(n)]
    krylov = [[column[i] for column in columns] for i in range(n)]
    a_to_n = [times_a([int(i == j) for i in range(n)], n) for j in range(n)]
    rank = oracle_gf_rank(krylov, p)
    with_a_to_n = [row + [column[i] for column in a_to_n] for i, row in enumerate(krylov)]
    return oracle_gf_rank(with_a_to_n, p) == rank, rank == n


def oracle_gf_sequence(a, b, u, length, p):
    """u A^j b mod p for j < length, on lists of Python ints, each power applied row by row."""
    sequence, x = [], list(b)
    for _ in range(length):
        sequence.append(sum(ui * xi for ui, xi in zip(u, x)) % p)
        x = [sum(aij * xj for aij, xj in zip(row, x)) % p for row in a]
    return sequence


def oracle_poly_times(x, y, p):
    """The product mod p of two polynomials given by their coefficients, lowest power first."""
    product = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            product[i + j] = (product[i + j] + xi * yj) % p
    return product


def oracle_poly_mod(poly, f, p):
    """The remainder mod f of a polynomial over GF(p), by schoolbook long division: its deg f coefficients, lowest
    power first.  f's last coefficient must be nonzero."""
    poly, degree = [c % p for c in poly], len(f) - 1
    inverse = pow(f[-1], -1, p)
    for top in range(len(poly) - 1, degree - 1, -1):
        factor = poly[top] * inverse % p
        for k, c in enumerate(f):
            poly[top - degree + k] = (poly[top - degree + k] - factor * c) % p
    return (poly + [0] * degree)[:degree]


def oracle_numerator(f, sequence, p):
    """The polynomial part of f(z) sum_j a_j z^-(j+1), lowest power first: coefficient k is the sum over i > k of
    f_i a_(i-k-1)."""
    return [sum(f[i] * sequence[i - k - 1] for i in range(k + 1, len(f))) % p for k in range(len(f) - 1)]


def oracle_monte_carlo_verify(pattern_a, pattern_b, trials, base_seed, check_controllability=False,
                              stream=None) -> MonteCarloStats:
    """One trial at a time, by dense elimination mod p on the whole pair of the trial's values; the elimination
    proves every trial, so none is inconsistent."""
    zc_structural = is_generically_zero_controllable(pattern_a, pattern_b).verdict
    ctrl_structural = None
    if check_controllability:
        ctrl_structural = is_generically_controllable(pattern_a, pattern_b).verdict
    zc_agree = ctrl_agree = 0
    disagreeing = []
    for seed in range(base_seed, base_seed + trials):
        zc, ctrl = oracle_gf_checks(*oracle_gf_pair(pattern_a, pattern_b, seed, stream), numeric._P)
        zc_agree += zc == zc_structural
        if zc != zc_structural:
            disagreeing.append(seed)
        ctrl_agree += ctrl == ctrl_structural
    return MonteCarloStats(trials, base_seed, zc_structural, zc_agree, 0, tuple(disagreeing),
                           ctrl_structural, ctrl_agree if check_controllability else None)


@lru_cache(maxsize=None)
def oracle_ziggurat_tables() -> tuple[list[int], list[float], list[float]]:
    """numpy's ziggurat tables ki, wi and fi, read back from ``Generator.standard_normal`` itself by crafting
    PCG64 states.  The state S_0 = M^-1 (S_1 - inc) mod 2^128 makes the next word
    S_1's, and an odd inc = S_2 - M S_1 makes the word after it S_2's; an S below 2^122 outputs S mod 2^64.  A word of
    layer i, sign 0 and rabs = 1 draws wi[i] exactly (through the wedge at U = 0 where ki[i] <= 1); ki[i] is the least
    rabs whose draw reads a second word; and fi[i] is the one float near (e - fi[i-1] U) / (1 - U), e = exp(-x^2 / 2),
    whose wedge test fi[i] + (fi[i-1] - fi[i]) U < e first fails at the same U as numpy's, at 3 points x of layer i;
    fi[0] is found with fi[1], near 1."""
    mult = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
    inverse = pow(mult, -1, 2**128)
    bits = np.random.PCG64()
    gen = np.random.Generator(bits)

    def craft(first, second):  # the states after the next two words, which are first and second
        low = (second ^ first ^ 1) & 1  # makes inc odd
        s1, s2 = first, low << 64 | (second ^ low)
        inc = (s2 - mult * s1) % 2**128
        s0 = inverse * (s1 - inc) % 2**128
        bits.state = {"bit_generator": "PCG64", "state": {"state": s0, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        return s1, s2

    def draw(first, second=0):  # the draw from words first, second, ...; and how many it read, 3 meaning more than 2
        s1, s2 = craft(first, second)
        x = gen.standard_normal()
        return x, {s1: 1, s2: 2}.get(bits.state["state"]["state"], 3)

    craft(0x0123456789ABCDEF, 2**64 - 2)
    assert bits.random_raw(2).tolist() == [0x0123456789ABCDEF, 2**64 - 2]  # the stepping the crafting assumes

    def least(lo, hi, rejects):  # the least value in [lo, hi) that ``rejects``, or hi
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if rejects(mid) else (mid + 1, hi)
        return lo

    wi = [draw(1 << 9 | i)[0] for i in range(256)]
    ki = [least(0, 2**52, lambda rabs: draw(rabs << 9 | i)[1] > 1) for i in range(256)]
    assert max(ki) < 2**52 and all(draw(1 << 9 | i)[1] == (1 if ki[i] > 1 else 2) for i in range(256))

    def near(value, ulps):  # the positive floats within ulps units in the last place of value
        return (np.float64(value).view(np.int64) + np.arange(-ulps, ulps + 1)).view(np.float64).tolist()

    def consistent(top, f, points):  # f, below top, rejects exactly from U on at each (x, U), U a multiple of 2^-53
        return all((u == 0 or (top - f) * ((u - 1) * 2.0**-53) + f < math.exp(-0.5 * x * x))
                   and (u == 2**53 or (top - f) * (u * 2.0**-53) + f >= math.exp(-0.5 * x * x)) for x, u in points)

    fi, tops = [1.0] * 256, near(1.0, 4)
    for i in range(1, 256):
        rabs = [max(ki[i], 1) + (2**52 - max(ki[i], 1)) * k // 4 for k in (1, 2, 3)]
        points = [(r * wi[i], least(0, 2**53, lambda u, r=r: draw(r << 9 | i, u << 11)[1] > 2)) for r in rabs]
        x, u = points[1][0], points[1][1] * 2.0**-53
        guesses = [near((math.exp(-0.5 * x * x) - top * u) / (1 - u), 32) for top in tops]
        found = [(top, f) for top, near_f in zip(tops, guesses) for f in near_f if consistent(top, f, points)]
        assert len(set(found)) == 1, (i, found)
        (fi[i - 1], fi[i]), tops = found[0], [found[0][1]]
    return ki, [float(w) for w in wi], [float(f) for f in fi]


def oracle_deadbeat_steer(realization, x0, horizon):
    """Deadbeat steering on the whole state: the n-row Gram [A^(horizon-1) B ... AB B], the right side
    -A^horizon x0 by a matrix power, least squares with numpy's default cutoff, then the forward simulation
    x(k+1) = A x(k) + B u(k) on every row."""
    a, b = realization.a, realization.b
    m = b.shape[1]
    blocks = [b]
    for _ in range(horizon - 1):
        blocks.insert(0, a @ blocks[0])
    gram = np.hstack(blocks)
    rhs = -np.linalg.matrix_power(a, horizon) @ np.asarray(x0, dtype=float)
    controls = np.linalg.lstsq(gram, rhs, rcond=None)[0].reshape(horizon, m) if m else np.zeros((horizon, 0))
    trajectory = [np.asarray(x0, dtype=float)]
    for k in range(horizon):
        trajectory.append(a @ trajectory[k] + b @ controls[k])
    trajectory = np.array(trajectory)
    return numeric.SteeringResult(controls, trajectory, float(np.linalg.norm(trajectory[-1])), horizon)


def oracle_steering_to_dict(result) -> dict:
    """The steering document built one float at a time."""
    return {
        "horizon": result.horizon,
        "final_norm": result.final_norm,
        "controls": [[float(v) for v in row] for row in result.controls],
        "trajectory": [[float(v) for v in row] for row in result.trajectory],
    }


def oracle_render_steering(result) -> str:
    """The steering text summed over numpy scalars, one element at a time."""
    lines = [f"horizon: {result.horizon}", f"final state norm: {result.final_norm:.3e}"]
    lines.append("state norms per step:")
    for k, row in enumerate(result.trajectory):
        norm = float(sum(v * v for v in row)) ** 0.5
        lines.append(f"  k={k:<3d} |x| = {norm:.6e}")
    return "\n".join(lines)
