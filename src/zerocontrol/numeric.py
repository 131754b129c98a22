"""Numerical cross-validation of structural verdicts: random admissible
realizations, exact rank tests over GF(p), deadbeat steering, Monte Carlo runs.
Steering solves on the states that the inputs reach, the only rows of its Gram
that are not exactly zero (``deadbeat_steer``).

Structural claims are generic: they hold for all parameter values outside a
measure-zero set.  No finite computation certifies that, so this module
samples concrete realizations, decides them, and reports agreement statistics
instead of pretending at certainty.

A pair is decided on the graph's reachable split (Kalman 1963): the reached
states, the unreached ones in Kahn's peel order, then the peel's survivors.  It
gives both structural verdicts: ZC exactly when nothing survives; not
controllable, in any realization either, when a state is unreached; else the
term rank decides.  Every realization has A21 = 0, B2 = 0 and a strictly
triangular peeled block there, so ZC(A, B) holds exactly when ZC(A11, B1) does
and the survivor block S is nilpotent.

One exact engine decides every pair over GF(p), p = 2^31 - 1.  Each trial of
``monte_carlo_verify`` (so ``verify``) reads its values mod p and then its
vectors in one read of its own stream, under one key: numpy's SeedSequence/PCG64
words, computed here bit for bit.  ``sample_realization`` and ``simulate``'s
random x0 compute numpy's uniform and standard normal draws from such words too,
the normals word by word, reading on, so on numpy >= 2 no subcommand imports
numpy.random.  The single checks (``is_zero_controllable_numeric``,
``is_controllable_numeric``) read a float realization's entries exactly mod p,
as a finite float is M 2^e for an integer M (Goldberg 1991) and 2^31 = 1 mod p,
on the split of the entries that stay nonzero: each is the ``verify`` trial of
the realization's seed, with those values in place of the drawn ones.  For a
fixed rational realization the reduction mod p can change a rank only when p divides
one of finitely many integers that the realization fixes (an entry of 2^31 - 1
reads as 0, say); no draw makes that rarer.  S is not nilpotent when S^k v' != 0
for a random v'.  (A11, B1) is decided as one input's pair (M, b) = (A11 + B1 K,
B1 alpha), for a random feedback K (0 when m = 1) that keeps both verdicts by
Heymann's lemma; M x = A11 x + B1 (K x).  Sparse Krylov sequences (Wiedemann
1986) decide (M, b): Berlekamp-Massey (Massey 1969), Euclid's algorithm on the
sequence (Dornstetter 1987), gives the dimension of the controllable space and a
cofactor, so one product mod its generator tests M^d v against it with no second
Euclid (no Bernstein-Yang division steps), and Horner's rule proves both; see
``_gf_krylov``.  Products fold mod the Mersenne prime p with no division,
stacked trials share each mat-vec, and a trial decides alike in any chunk.  A
verdict is wrong only with the small probabilities stated at ``_P``; a trial
that the engine cannot prove is counted inconsistent and takes "no".
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .graph import _input_reach, _reachable_split, build_graph
from .patterns import PatternMatrix, _pair
from .structural import generic_rank

#: Default base seed for every seeded entry point, so quick-start runs agree.
DEFAULT_BASE_SEED = 20240001

#: Default eigenvalue nonzero threshold scale of ``count_nonzero_eigenvalues``; the single checks validate it only.
DEFAULT_TOL = 1e-8

#: Most matrix entries deadbeat steering may need: over ``steps`` steps it builds n1-by-steps Gram blocks, one per
#: input column, for the n1 <= n states the inputs reach, and the n-by-steps trajectory; at most n-by-steps each,
#: 256 MiB at 2^25 entries.  The exact trials make nothing n by n.
MAX_DENSE_ENTRIES = 2**25


def check_dense_size(n: int, m: int, steps: int) -> None:
    """Refuse a steering of n states and m inputs over ``steps`` steps, before anything is allocated, when
    ``steps`` is below 1 or its n * max(n, steps) * (m + 1) dense entries pass MAX_DENSE_ENTRIES."""
    if steps < 1:
        raise ValueError(f"horizon must be >= 1, got {steps}")
    entries = n * max(n, steps) * (m + 1)
    if entries > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"n={n}, m={m} over {steps} steps needs {entries} dense matrix entries, "
            f"above the limit of {MAX_DENSE_ENTRIES}"
        )


@dataclass(frozen=True, eq=False)
class ValueSpec:
    """Sampling law for realized nonzeros: sign uniform, magnitude uniform in
    [low, high].  The lower bound keeps realizations away from degenerate
    parameter choices."""

    low: float = 0.1
    high: float = 2.0

    def __post_init__(self):
        if not 0 < self.low <= self.high < np.inf:  # NaN fails every comparison
            raise ValueError(f"value bounds need 0 < low <= high < inf, got low={self.low}, high={self.high}")


@dataclass(frozen=True, eq=False)
class Realization:
    """Concrete numeric pair sampled for a pattern pair: zeros of the pattern
    stay exactly zero, every pattern nonzero gets a value with
    |value| >= value_spec.low."""

    a: np.ndarray
    b: np.ndarray
    seed: int
    value_spec: ValueSpec

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


def sample_realization(
    pattern_a: PatternMatrix,
    pattern_b: PatternMatrix | None = None,
    seed: int = DEFAULT_BASE_SEED,
    value_spec: ValueSpec = ValueSpec(),
) -> Realization:
    """Deterministic realization for the given seed.  Entries are filled in sorted position order, so the draw
    sequence is part of the contract.  ``_pair`` refuses a non-square state pattern and an input pattern without
    one row per state; a missing input pattern means n-by-0, no inputs.  The draws are numpy's
    ``default_rng(seed).random`` stream, computed here: each word w gives next_double, (w >> 11) 2^-53."""
    seeds, pattern_b = _seeds(seed, 1), _pair(pattern_a, pattern_b)
    a, b, entries = np.zeros(pattern_a.shape), np.zeros(pattern_b.shape), [_entries(pattern_a), _entries(pattern_b)]
    draws = (_gf_words(seeds, 0, 2 * sum(len(rows) for rows, _ in entries), ())[0] >> np.uint64(11)) * 2.0**-53
    for matrix, (rows, cols) in zip((a, b), entries):
        pairs, draws = draws[:2 * len(rows)], draws[2 * len(rows):]  # two per entry in entry order, A's then B's
        magnitude = value_spec.low + (value_spec.high - value_spec.low) * pairs[0::2]  # uniform magnitude, then sign
        matrix[rows - 1, cols - 1] = np.where(pairs[1::2] < 0.5, magnitude, -magnitude)
    return Realization(a, b, seed, value_spec)


def _seeds(base_seed: int, count: int) -> range:
    """The seeds of ``count`` realizations from ``base_seed`` on, refused before any work when negative."""
    if base_seed < 0:
        raise ValueError(f"seed must be >= 0, got {base_seed}")
    return range(base_seed, base_seed + count)


def _entries(pattern: PatternMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The pattern's entries, 1-based, in the sorted order that every draw follows: by row, then by column."""
    rows, cols = pattern._coords
    ordered = np.lexsort((cols, rows))
    return rows[ordered], cols[ordered]


@dataclass(frozen=True)
class NumericCheck:
    """Outcome of a single exact check: the verdict, and whether the engine proved it within its redraw budget.
    An unproven check takes the conservative False."""

    verdict: bool
    consistent: bool

    def __bool__(self) -> bool:
        return self.verdict


def _check_tol(tol: float) -> None:
    if not 0 < tol < 1:  # NaN fails both comparisons
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def is_controllable_numeric(realization: Realization, tol: float = DEFAULT_TOL) -> NumericCheck:
    """Controllability of a concrete pair, decided exactly mod p: rank C = n.  ``tol`` is validated only."""
    return _single(realization, tol, zc=False)


def is_zero_controllable_numeric(realization: Realization, tol: float = DEFAULT_TOL) -> NumericCheck:
    """Zero controllability of a concrete pair, decided exactly mod p: rank [C, A^n] = rank C.  ``tol`` is
    validated only."""
    return _single(realization, tol, zc=True)


def _single(realization: Realization, tol: float, zc: bool) -> NumericCheck:
    """The ``verify`` trial of the realization's seed, on the split that its nonzeros give, with its entries read
    exactly mod _P in place of the drawn values."""
    _check_tol(tol)
    a, b = realization.a, realization.b
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("the realization has a non-finite entry, so no exact verdict")
    masks = [v != 0 for v in (a, b)]  # the nonzeros only: reading all n^2 entries took 30x the memory at n = 3000
    residues = [_exact_residues(v[mask]) for v, mask in zip((a, b), masks)]  # row-major, the order of _entries
    for mask, r in zip(masks, residues):
        mask[mask] = r != 0  # an entry that reads as 0 is none of the pair's
    plan = _gf_plan(*map(_pattern_of, masks))
    if not zc and plan.n1 < plan.n:  # a state that no input reaches
        return NumericCheck(False, True)
    values = np.concatenate([r[r != 0] for r in residues])
    zc_ok, ctrl_ok, proven = _gf_decide(plan, _seeds(realization.seed, 1), values[:, None])
    return NumericCheck(bool((zc_ok if zc else ctrl_ok)[0]), bool(proven[0]))


def _pattern_of(mask: np.ndarray) -> PatternMatrix:
    """The entries that ``mask`` keeps, as a pattern sorted by column and then row as PatternMatrix._coords is."""
    cols, rows = np.nonzero(mask.T)
    return PatternMatrix._trusted(*mask.shape, rows + 1, cols + 1)


def _exact_residues(x: np.ndarray) -> np.ndarray:
    """Finite floats exactly mod _P: x = M 2^e with M = frexp's mantissa times 2^53, an integer, and 2^31 = 1."""
    mantissa, exponent = np.frexp(x)
    return (mantissa * 2.0**53).astype(np.int64) % _P * 2 ** ((exponent.astype(np.int64) - 53) % 31) % _P


def count_nonzero_eigenvalues(realization: Realization, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues with modulus above tol * (1 + spectral radius).  Generically that is nu(A), but
    not in float as n grows, where rounding smears nilpotent chains: on four draws of 15 patterns with 2n entries
    and 4 seeds each, it matched nu(A) on 58-60 of 60 at n = 12, 22-55 at n = 40 and 4-9 at n = 100."""
    _check_tol(tol)
    a = realization.a
    modulus = np.abs(np.linalg.eigvals(a)) if len(a) else np.zeros(0)
    return int(np.sum(modulus > tol * (1.0 + modulus.max(initial=0.0))))


@dataclass(frozen=True, eq=False)
class SteeringResult:
    """Deadbeat steering attempt: controls u(0..horizon-1), simulated
    trajectory x(0..horizon), and the norm of the final state."""

    controls: np.ndarray    # (horizon, m)
    trajectory: np.ndarray  # (horizon + 1, n)
    final_norm: float
    horizon: int


# an overflow shows up as a non-finite result, which the caller judges; numpy need not warn of it
@np.errstate(over="ignore", invalid="ignore")
def deadbeat_steer(
    realization: Realization, x0: np.ndarray, horizon: int
) -> SteeringResult:
    """Minimum-norm least-squares control sequence aiming at x(horizon) = 0.

    Solves sum_k A^(horizon-1-k) B u(k) = -A^horizon x0 and simulates the
    result forward; an unsteerable state simply shows up as a large final
    norm.  With no inputs the trajectory is the free motion.

    The solve runs on the states R that the inputs reach through the realization's nonzeros.  In Kalman's split
    (1963) no reached state and no input feeds a state off R, so the rows of every A^j B off R are exactly zero:
    the Gram's rows on R, blocks A11^j B1, have the same minimizers, minimum-norm solution and nonzero singular
    values as the whole Gram, and rcond = eps max(n, horizon m) keeps the whole system's cutoff.  The trajectory
    starts as the free motion A^k x0, by mat-vecs; the rows off R keep it, as no input moves them, and the rows
    on R are simulated forward, x_R(k+1) = A[R, :] x(k) + B_R u(k).
    """
    a, b = realization.a, realization.b
    n, m = realization.n, realization.m
    check_dense_size(n, m, horizon)
    trajectory = np.empty((horizon + 1, n))
    trajectory[0] = np.asarray(x0, dtype=float).reshape(n)
    for k in range(horizon):
        np.matmul(a, trajectory[k], out=trajectory[k + 1])
    controls = np.zeros((horizon, m))
    if m:  # with no inputs nothing is reached and nothing solved for
        graph = build_graph(_pattern_of(a != 0), _pattern_of(b != 0))  # keeps an entry that reads as 0 mod _P
        reached = np.flatnonzero(np.frombuffer(_input_reach(graph), dtype=np.uint8)[1:])
        a_r, b_r, a11 = a[reached], b[reached], a[np.ix_(reached, reached)]
        # column block k is A11^(horizon-1-k) B1, to match the stacked unknown [u(0); ...; u(horizon-1)],
        # written in place from the last block down, so the Gram is the only copy
        gram = np.empty((len(reached), horizon * m))
        blocks = gram.reshape(len(reached), horizon, m).transpose(1, 0, 2)
        blocks[-1] = b_r
        for k in range(horizon - 2, -1, -1):
            np.matmul(a11, blocks[k + 1], out=blocks[k])
        rhs = -trajectory[-1, reached]
        if np.isfinite(gram).all() and np.isfinite(rhs).all():
            rcond = np.finfo(float).eps * max(n, horizon * m)
            controls = np.linalg.lstsq(gram, rhs, rcond=rcond)[0].reshape(horizon, m)
        else:  # LAPACK refuses an overflowed system, and some builds print to stderr first
            controls[:] = np.nan
        for k in range(horizon):
            trajectory[k + 1, reached] = a_r @ trajectory[k] + b_r @ controls[k]
    return SteeringResult(
        controls=controls,
        trajectory=trajectory,
        final_norm=float(np.linalg.norm(trajectory[-1])),
        horizon=horizon,
    )


def steering_residual(realization: Realization, result: SteeringResult) -> float:
    """Worst relative violation of x(l) - A^l x(0) = sum_k A^(l-1-k) B u(k)
    over every prefix of the trajectory."""
    a, b = realization.a, realization.b
    x0 = result.trajectory[0]
    worst = 0.0
    forced = np.zeros_like(x0)
    free = x0.copy()
    for l in range(1, result.horizon + 1):
        forced = a @ forced + b @ result.controls[l - 1]
        free = a @ free
        lhs = result.trajectory[l] - free
        scale = max(1.0, float(np.linalg.norm(result.trajectory[l])), float(np.linalg.norm(free)))
        worst = max(worst, float(np.linalg.norm(lhs - forced)) / scale)
    return worst


# --- exact trials over GF(p) ------------------------------------------------------------------------------

#: The prime of the exact trials, a Mersenne prime.  Residues lie below 2^31, so a product x of two lies below 2^62
#: and, as 2^31 = 1 mod _P, folds with no division to (x & _P) + (x >> 31) < 2^32 (``_fold``); fewer than 2^31
#: folded terms sum in int64, so each sum takes one reduction mod _P, at any n.
#: A trial's values mod _P are uniform and nonzero: by Schwartz (1980) and Zippel (1979) its pair falls on the
#: non-generic set with probability at most n^2 / (2 _P), 2.3e-4 at n = 1000, and then its verdict may differ.
#: With m > 1 it decides (M, b) = (A11 + B1 K, B1 alpha), K uniform and alpha != 0, whose Krylov space misses
#: part of C(A11, B1), of dimension r <= n1, only where an r-by-r minor of [b, Mb, ..., M^(r-1) b], of degree
#: r (r + 1) / 2 in K and alpha, vanishes: a wrong "no", at most about n1 (n1 + 1) / (2 _P) more, 2.3e-4 at n1 = 1000.
#: A single check reads its realization's values mod _P, so of these two bounds only the second applies to it.
_P = 2**31 - 1

#: The spawn key of each trial's exact stream, numpy's PCG64(SeedSequence(base_seed + i, spawn_key=_GF_KEY)), so a
#: trial replays in numpy.random and ``simulate``'s draws, from the empty key, do not move.  ``_gf_words`` computes
#: both bit for bit, so on numpy >= 2 no subcommand imports numpy.random.  A trial reads its stream once, its values
#: mod _P and then its vectors and feedback, and reads on once per redraw: alpha, when m > 1, and u.  A single check
#: reads its realization's seed's stream alike, and puts its exact values in place of the words read for them.
_GF_KEY = (1,)

#: SeedSequence's hash constants (INIT_A, MULT_A), (INIT_B, MULT_B) and (MIX_MULT_L, MIX_MULT_R); PCG64's multiplier.
_HASH, _MIX = ((0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)), (np.uint32(0xCA01F9DD), np.uint32(0x4973F715))
_PCG_MULT, _LOW32, _32 = 0x2360ED051FC65DA44385DF649FCCF645, np.uint64(2**32 - 1), np.uint64(32)
#: numpy's ziggurat tail edge r and 1 / r, as its C source spells them; spare words in each block ``_normals`` reads.
_ZIG_R, _ZIG_INV_R, _SPARE = 3.6541528853610087963519472518, 0.27366123732975827203338247596, 16

#: Draws of the left vector u, and with m > 1 of alpha, a trial may take; a trial that none of them proves counts
#: as inconsistent and takes the conservative "no".  One draw fails with probability at most (n1 + 2) / _P.
_GF_DRAWS = 3

#: Most array entries of one chunk of stacked trials, so memory stays flat at any n or trial count.  ``_gf_words``
#: draws in row blocks within it: it holds about _WORD_TEMPS entries per word at its peak, and O(sqrt(words)) ints.
_STACK_ENTRIES, _WORD_TEMPS = 2**18, 8

_Plan = namedtuple("_Plan", "blocks b1 n m n1 k fed entries words peak")  # a pair's exact plan, from ``_gf_plan``


def _gf_words(seeds: range | list[int], start: int, count: int, key: tuple = _GF_KEY) -> np.ndarray:
    """Words start .. start + count - 1 of each seed's stream under ``key``, (T, count) uint64, all trials at once.
    (i) SeedSequence hashes the seed's 32-bit words, padded to its pool of 4 (a zero word hashes as the pool's filler),
    and the key into PCG64's seed s and stream i.  (ii) PCG64 steps S -> M S + inc, inc = 2 i + 1, from 0, adds s and
    steps again.  (iii) So word j is the XSL-RR output of S_(j+2) = M^(j+2) x + (1 + ... + M^(j+1)) inc mod 2^128, x =
    s + inc, in blocks of about sqrt(count)."""
    key = np.array(key, dtype="<u4").tobytes()
    entropy = [seed.to_bytes(4 * max(4, -(-seed.bit_length() // 32)), "little") + key for seed in seeds]
    size, lengths = max(map(len, entropy), default=20), np.array(list(map(len, entropy)))[:, None]
    packed = np.frombuffer(b"".join(w.ljust(size, b"\0") for w in entropy), "<u4").reshape(len(seeds), size // 4)
    mixing, output = (np.array([i] + [m] * size, np.uint32).cumprod(dtype=np.uint32) for i, m in _HASH)
    pool = _hashmix(packed[:, :4], mixing[:5])  # (i) 4 hashes per entropy word, then 1 per output word
    for src, dst in enumerate(~np.eye(4, dtype=bool)):
        pool[:, dst] = _hashmix(pool[:, src, None], mixing[4 + 3 * src:8 + 3 * src], pool[:, dst])
    for src in range(4, size // 4):  # the key, after a longer entropy's further words
        pool = np.where(4 * src < lengths, _hashmix(packed[:, src, None], mixing[4 * src:4 * src + 5], pool), pool)
    half = _hashmix(np.tile(pool, 2), output[:9]).astype(np.uint64)  # generate_state(4, np.uint64): s, then i
    state = (half[:, ::2] | half[:, 1::2] << _32).T
    inc = np.stack([state[2] << 1 | state[3] >> 63, state[3] << 1 | 1])[..., None]  # (ii)
    x, block = np.stack(_mul_add(np.array([0, 1], dtype=np.uint64), state[:2, :, None], inc)), max(1, int(count**0.5))
    within, across = _jumps(range(block)), _jumps(range(start + 2, start + 2 + max(count, 1), block))  # (iii)
    out = np.empty((len(seeds), across.shape[1] * block), dtype=np.uint64)
    for t in np.array_split(np.arange(len(seeds)), min(len(seeds), 1 + _WORD_TEMPS * out.size // _STACK_ENTRIES) or 1):
        z = np.stack(_mul_add(across[:2, None], x[:, t], _mul_add(across[2:, None], inc[:, t])))
        high, low = _mul_add(within[:2, None, None], z[..., None], _mul_add(within[2:, None, None], inc[:, t, None]))
        rot, low = high >> 58, high ^ low
        out[t] = (low >> rot | low << (64 - rot & 63)).reshape(-1, out.shape[1])
    return out[:, :count]


def _jumps(steps: range) -> np.ndarray:
    """PCG64's jump of k steps, S -> M^k S + (M^k - 1) / (M - 1) inc mod 2^128, for each k of ``steps``: rows A_hi,
    A_lo, C_hi and C_lo, read off M^k mod (M - 1) 2^128, which the powers of M^steps.step advance."""
    modulus = (_PCG_MULT - 1) << 128
    powers, stride = [pow(_PCG_MULT, steps.start, modulus)], pow(_PCG_MULT, steps.step, modulus)
    while len(powers) < len(steps):
        powers.append(powers[-1] * stride % modulus)
    words = [w >> shift & 2**64 - 1 for p in powers for w in (p, (p - 1) // (_PCG_MULT - 1)) for shift in (64, 0)]
    return np.array(words, dtype=np.uint64).reshape(-1, 4).T


def _hashmix(value: np.ndarray, consts: np.ndarray, pool: np.ndarray | None = None) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words, by the hash constant before each and after the last; mixed into pool."""
    value = (value ^ consts[:-1]) * consts[1:]
    value ^= value >> np.uint32(16)
    if pool is not None:
        value = pool * _MIX[0] - value * _MIX[1]
        value ^= value >> np.uint32(16)
    return value


def _mul_add(a, x, y=np.zeros(2, dtype=np.uint64)) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) of a x + y mod 2^128 for (high, low) uint64 pairs, none a Python int (numpy < 2 makes it float)."""
    (a_hi, a_lo), (x_hi, x_lo), (y_hi, y_lo) = a, x, y
    a1, a0, x1, x0 = a_lo >> _32, a_lo & _LOW32, x_lo >> _32, x_lo & _LOW32
    mid, low = a1 * x0 + (a0 * x0 >> _32), a_lo * x_lo + y_lo
    carry = (mid >> _32) + (a0 * x1 + (mid & _LOW32) >> _32) + (low < y_lo)
    return a_hi * x_lo + a_lo * x_hi + a1 * x1 + y_hi + carry, low


@functools.cache
def _ziggurat() -> tuple[list[int], list[float], list[float]]:
    """numpy's ziggurat tables ki, wi and fi as Python ints and floats, decoded once, at the first normal draw."""
    from ._ziggurat import TABLES
    ki, wi, fi = np.frombuffer(bytes.fromhex(TABLES), "<u8").reshape(3, 256)
    return ki.tolist(), wi.view("<f8").tolist(), fi.view("<f8").tolist()


def _normals(seed: int, n: int) -> np.ndarray:
    """numpy's ``default_rng(seed).standard_normal(n)``, bit for bit: Marsaglia and Tsang's (2000) ziggurat, word by
    word as numpy's own loop, on the seed's computed words.  Word w takes layer i = w & 0xff, sign bit 8 and 52-bit
    rabs = w >> 9, and gives x = rabs wi[i] when rabs < ki[i]; 1.5 % of words go on to layer i's wedge on one uniform
    or, for i = 0, to the tail beyond r, two uniforms a round.  A rejected x is drawn again from the next word."""
    (ki, wi, fi), seeds, out = _ziggurat(), _seeds(seed, 1), []

    def stream(start=0):  # the seed's words, each read once, in blocks that read on from where the last stopped
        while True:
            count = (left := n - len(out)) + left // 16 + _SPARE
            yield from _gf_words(seeds, start, count, ())[0].tolist()
            start += count

    words = stream()
    uniforms = ((w >> 11) * 2.0**-53 for w in words)  # numpy's next_double, on the same words
    while len(out) < n:
        i, rabs = (w := next(words)) & 255, w >> 9 & 2**52 - 1
        x = -(rabs * wi[i]) if w >> 8 & 1 else rabs * wi[i]
        if rabs < ki[i] or i and (fi[i - 1] - fi[i]) * next(uniforms) + fi[i] < math.exp(-0.5 * x * x):  # the wedge
            out.append(x)
        elif not i:  # the tail beyond r, two uniforms a round until one is accepted
            xx = yy = 0.0
            while yy + yy <= xx * xx:
                xx, yy = -_ZIG_INV_R * math.log1p(-next(uniforms)), -math.log1p(-next(uniforms))
            out.append(-(_ZIG_R + xx) if rabs >> 8 & 1 else _ZIG_R + xx)
    return np.array(out)


def _residues(words: np.ndarray, low: int = 0) -> np.ndarray:
    """64-bit words as residues in [low, _P), each within 2^-32 of uniform: nonzero for values and alpha."""
    return (words % np.uint64(_P - low)).astype(np.int64) + low


def _gf_plan(pattern_a: PatternMatrix, pattern_b: PatternMatrix) -> _Plan:
    """The exact engine's only input: the pair's reachable split, whose block facts ``_reachable_split`` checks, and
    where a trial's values go on it, one per entry in ``_entries`` order, A's then B's.  Returns the mat-vec plans of
    A11, of A11 and its transpose side by side (block diagonal), and of S; for B1, the indices of its values, their rows
    and their columns; the sizes n, m, n1 and k, and fed, the rows of the feedback K (m when m > 1, else 0); the number
    of values, the words of a trial's first read, and the entries one trial holds at its peak, which size chunks."""
    (n, m), (_, at, n1, k) = pattern_b.shape, _reachable_split(build_graph(pattern_a, pattern_b))
    rows, cols = (at[v] for v in _entries(pattern_a))
    lo, fed = n - k, m if m > 1 else 0  # the first survivor's position; the rows of K
    a11, s = (rows < n1) & (cols < n1), (rows >= lo) & (cols >= lo)
    index, r, c = np.flatnonzero(a11), rows[a11], cols[a11]
    blocks = (_mv_plan(index, r, c), _mv_plan(np.r_[index, index], np.r_[r, c + n1], np.r_[c, r + n1]),
              _mv_plan(np.flatnonzero(s), rows[s] - lo, cols[s] - lo))
    b_rows, b_cols = _entries(pattern_b)
    b1, entries = (len(rows) + np.arange(len(b_rows)), at[b_rows], b_cols - 1), len(rows) + len(b_rows)
    words = entries + m + k + (2 + fed) * n1  # values, then alpha, v', v, u and K
    # per trial: A's entries gathered for two vectors, the Krylov sequences and polynomials, S's vector, and feedback
    peak = max(2 * len(rows) + 16 * n1 + k + 12 * fed * n1, words, 1)
    return _Plan(blocks, b1, n, m, n1, k, fed, entries, words, peak)


def _mv_plan(index: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """A block's mat-vec plan, by row: the indices of its values, their columns, the first entry of each row
    that has one, and those rows."""
    order = np.argsort(rows, kind="stable")
    present, starts = np.unique(rows[order], return_index=True)
    return index[order], cols[order], starts, present


def _fold(x: np.ndarray) -> np.ndarray:
    """Each entry of x, 0 <= x < 2^62, folded in place to (x & _P) + (x >> 31) < 2^32, equal mod _P."""
    high = x >> 31
    x &= _P
    x += high
    return x


def _gf_matvec(x: np.ndarray, vals: np.ndarray, block: tuple) -> np.ndarray:
    """M x mod _P for each trial's block M, whose values are ``vals`` (entries, T), and each of that trial's
    vectors in x (size, V, T): one gather, one fold and one segmented sum for the whole stack, trials last."""
    _, cols, starts, present = block
    y = np.zeros_like(x)
    if len(cols):
        products = x[cols]
        products *= vals[:, None]
        y[present] = np.add.reduceat(_fold(products), starts, axis=0) % _P
    return y


def _gf_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sums mod _P over the first axis of x y, each product folded first, by einsum: ``sum`` is slow over a long
    first axis of short rows, as a Krylov step of one trial has."""
    return np.einsum("i...->...", _fold(x * y)) % _P


def _berlekamp_massey(a: np.ndarray, most: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The minimal generator f of each column of a (2 * most, T) stack of sequences of linear complexity at most
    ``most``: its coefficients by power (most + 1, T), not monic, and its degree r; then q', the connection
    polynomial from before the last length change reversed over its length, of degree below r.  Massey's (1969)
    algorithm in its inversion-free form, across the columns: sum_i f_i a_(j+i) = 0 for every j.  It is Euclid's
    on the sequence (Dornstetter 1987), q' the cofactor of its last step: with N_a the polynomial part of
    f(z) sum a_j z^-(j+1), N_a q' = kappa (mod f) for a constant kappa != 0."""
    length, t = a.shape
    c, saved, bz = np.zeros((3, most + 2, t), dtype=np.int64)  # c, c before its last length change, z^s saved
    c[0] = saved[0] = bz[1] = 1
    ell, ell_saved, gamma = np.zeros(t, dtype=np.int64), np.zeros(t, dtype=np.int64), np.ones(t, dtype=np.int64)
    for j in range(length):
        disc = _gf_dot(c[:j + 1], a[j::-1][:most + 2])  # sum_i c_i a_(j-i)
        grow = (disc != 0) & (2 * ell <= j)
        saved, moved = np.where(grow, c, saved), np.where(grow, c, bz)
        c = (gamma * c - disc * bz) % _P
        ell, ell_saved, gamma = np.where(grow, [j + 1 - ell, ell, disc], [ell, ell_saved, gamma])
        bz[1:] = moved[:-1]
    return _shifted(c[:most + 1], ell, reverse=True), ell, _shifted(saved[:most + 1], ell_saved, reverse=True)


def _shifted(poly: np.ndarray, by: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Each polynomial times z^by, cut to its coefficients, with the coefficients on the first axis and the
    trials on the last; or, with ``reverse``, its coefficients 0..by in reverse order."""
    power = np.arange(len(poly)).reshape(-1, *[1] * (poly.ndim - 1))
    power = by - power if reverse else power - by
    index = np.broadcast_to(np.clip(power, 0, len(poly) - 1), poly.shape)
    return np.where((power >= 0) & (power < len(poly)), np.take_along_axis(poly, index, axis=0), 0)


def _gf_step(x: np.ndarray, vals: np.ndarray, block: tuple, into: np.ndarray, out_of: np.ndarray) -> np.ndarray:
    """``_gf_matvec`` of the block plus, on each of S equal row parts of x, into^T (out_of x) for its m-by-n1 factors
    in ``into`` and ``out_of`` (S, m, n1, T): (B1^T, K) adds B1 (K x), for M = A11 + B1 K, and (K, B1^T) adds
    K^T (B1^T y), for M^T; S = 0 is K = 0.  Nothing is n1 by n1, and each sum runs along a first or last axis."""
    y = _gf_matvec(x, vals, block)
    if not len(into):
        return y
    parts = x.reshape(len(into), -1, *x.shape[1:]).transpose(0, 2, 3, 1)  # (S, V, T, n1)
    through = _fold(out_of.transpose(0, 1, 3, 2)[:, :, None] * parts[:, None]).sum(axis=-1) % _P  # (S, m, V, T)
    y += _gf_dot(into.swapaxes(0, 1)[..., None, :], through.swapaxes(0, 1)[:, :, None]).reshape(y.shape)
    return y % _P


def _gf_krylov(a11: tuple, both: tuple, values: np.ndarray, b: np.ndarray, v: np.ndarray, u: np.ndarray,
               feedback: tuple) -> tuple:
    """ZC and controllability over GF(_P) of stacked pairs (A, b) of one input, A = A11 + B1 K, after Wiedemann
    (1986), with random vectors v and u; vectors are (n1, T), ``values`` (drawn, T), ``a11`` and ``both`` the plans
    of A11 and of A11 beside its transpose, and ``feedback`` the factors B1^T and K of ``_gf_step``, or none for
    K = 0.  Returns which trials are proven, which are ZC and which are controllable.

    (i) a_j = u A^j b for j < 2 n1 has minimal generator f, of degree r, by Berlekamp-Massey.  (ii) f(A) b = 0
    proves that r is the dimension of C, the Krylov space of b; else u was unlucky.  (iii) The quotient by C has
    dimension d = n1 - r, so it is nilpotent exactly when A^d maps every vector into C, and w = A^d v for a
    random v lands in C otherwise with probability at most 1 / _P.  (iv) w = h(A) b, deg h < r, has h N_a = N_c
    (mod f), N_a and N_c the polynomial parts of f(z) sum a_j z^-(j+1) and f(z) sum c_j z^-(j+1), c_j = u A^j w.
    Berlekamp-Massey's q' has N_a q' = kappa != 0 (mod f), so kappa h = N_c q' mod f, in O(r^2) work; and sigma
    = sum_i (N_a q')_i a_i is kappa a_0, as f generates a.  If a_0 = u b = 0, u was unlucky (r = 0, where b = 0
    and h = 0, takes sigma = 1).  (v) a_0 kappa h(A) b = sigma w, by Horner from degree max(r, d), proves w in
    C, and its failure proves w outside it, h being unique.  Controllability is r = n1."""
    n1, t = b.shape
    into, out_of = np.stack([feedback, feedback[::-1]], axis=1) if feedback else (np.zeros(0),) * 2  # M, M^T
    a, e = np.empty((2 * n1 + 1, t), dtype=np.int64), np.empty((n1 + 1, t), dtype=np.int64)
    xy, vals = np.concatenate([b, u])[:, None], values[both[0]]  # A^k b above (A^T)^k u
    dots = np.stack([b, b, v], axis=1)  # A^(k-1) b, A^k b and v, each dotted with (A^T)^k u
    a[0], e[0] = _gf_dot(dots[:, 1:], u[:, None])
    for k in range(n1):  # a_2k+1 = (A^T)^(k+1) u . A^k b, a_2k+2 and e_k+1 = u A^(k+1) v in one dot
        xy = _gf_step(xy, vals, both, into, out_of)
        dots[:, 0], dots[:, 1] = dots[:, 1], xy[:n1, 0]
        a[2 * k + 1], a[2 * k + 2], e[k + 1] = _gf_dot(dots, xy[n1:])
    (f, r, q), vals = _berlekamp_massey(a[:2 * n1], n1), values[a11[0]]
    width, d = int(r.max()) + 1, n1 - r
    f = f[:width] * [pow(int(lead), -1, _P) for lead in f[r, np.arange(t)]] % _P  # monic
    sequences = np.stack([a[:width], _shifted(e, -d)[:width]], axis=1)  # c_j = e_(d + j)
    numerators = np.zeros_like(sequences)  # N_k = sum_(i > k) f_i a_(i - k - 1), and the same for c
    for i in range(1, width):
        numerators[:i] += _fold(f[i, None] * sequences[i - 1::-1])
    numerators %= _P
    products = np.zeros((2 * width - 2, 2, t), dtype=np.int64)  # N_a q' and N_c q', of degree below 2 r - 1
    for i in range(width - 1):  # deg q' < r
        products[i:i + width - 1] += _fold(q[i, None] * numerators[:width - 1])
    products %= _P
    sigma = np.where(r > 0, _gf_dot(products[:, 0], a[:len(products)]), 1)
    h, top = products[:, 1], _shifted(f, width - 1 - r)  # z^(width - 1 - r) f, monic of degree width - 1
    for i in range(len(h) - 1, width - 2, -1):  # kappa h = N_c q' mod top, which is mod f too
        h[i - width + 1:i + 1] += _fold((_P - h[i] % _P) * top)
    start = int(np.maximum(r, d).max())
    coefficients = np.zeros((start + 1, 3, t), dtype=np.int64)  # f and a_0 kappa h on b, and -sigma z^d on v
    coefficients[:width, 0], coefficients[:width - 1, 1] = f, h[:width - 1] % _P * a[0] % _P
    coefficients[d, 2, np.arange(t)] = (_P - sigma) % _P
    y = np.zeros((n1, 2, t), dtype=np.int64)  # f(A) b, and a_0 kappa h(A) b - sigma A^d v
    for i in range(start, -1, -1):
        y = _gf_step(y, vals, a11, into[:1], out_of[:1]) if i < start else y
        y += _fold(coefficients[i, :2] * b[:, None])
        y[:, 1] += _fold(coefficients[i, 2] * v)
        y %= _P
    return ~y[:, 0].any(axis=0) & (sigma != 0), ~y[:, 1].any(axis=0), r == n1


def _gf_decide(plan: _Plan, seeds: range | list[int], values: np.ndarray | None = None) -> tuple:
    """Exact verdicts of a chunk of trials over GF(_P) on the plan's reachable split, where ZC(A, B) holds exactly
    when ZC(A11, B1) does and S is nilpotent.  Each trial reads its seed's stream once, all trials in one call: its
    values mod _P, one per entry in ``_entries`` order, A's then B's; then alpha, v', v and u, and with m > 1 the
    feedback K, m by n1, row by row.  ``values``, one row per entry and one column per trial, takes the place of
    the values read.  A redraw reads on: alpha when m > 1, then u.  Returns per trial whether it is ZC, whether it
    is controllable and whether it was proven.

    (vi) S^k v' != 0 proves that S is not nilpotent, and survivors are unreached, so the trial is not controllable
    either and takes no Krylov steps.  (A11, B1) is decided by them on one input, the pair (M, b) = (A11 + B1 K, B1
    alpha), with K = 0 when m = 1.  Feedback changes neither verdict: C(M, B1) = C(A11, B1) for the controllable
    spaces, and M acts as A11 on the quotient by it (Wonham 1985).  C(M, b) lies inside it, so a "yes" holds for any
    K and alpha, and by Heymann's lemma (Heymann 1968; Hautus 1977) it is all of it for generic ones, as bounded at
    ``_P``.  A reached block has B1 != 0, so b = 0 would give a wrong "no": the trial redraws alpha instead, as it
    redraws u when u b = 0."""
    (a11, both, s), (b_index, b_rows, b_cols), n, m, n1, k, fed, entries, count, _ = plan
    t, words = len(seeds), _gf_words(seeds, 0, count).T
    values = _residues(words[:entries], 1) if values is None else values
    alpha = _residues(words[entries:entries + m], 1)
    v_s, v, u, gain = np.split(_residues(words[entries + m:]), np.cumsum([k, n1, n1]))
    zc, controllable, proven = np.ones(t, dtype=bool), np.full(t, n1 == n), np.ones(t, dtype=bool)
    if k:
        x, vals = v_s[:, None], values[s[0]]
        for _ in range(k):
            x = _gf_matvec(x, vals, s)
        zc = ~x.any(axis=(0, 1))
    todo = np.flatnonzero(zc & (n1 > 0))
    b1 = np.zeros((m, n1, t), dtype=np.int64)  # B1^T
    b1[b_cols, b_rows] = values[b_index]
    for draw in range(_GF_DRAWS):
        if not len(todo):
            break
        if draw:
            fresh = _gf_words([seeds[i] for i in todo], count + (draw - 1) * (fed + n1), fed + n1).T
            if fed:
                alpha[:, todo] = _residues(fresh[:fed], 1)
            u[:, todo] = _residues(fresh[-n1:])
        b = _gf_dot(b1[..., todo], alpha[:, None, todo])
        ok, zc_b, ctrl_b = _gf_krylov(a11, both, values[:, todo], b, v[:, todo], u[:, todo],
                                      (b1[..., todo], gain.reshape(fed, n1, t)[..., todo]) if fed else ())
        ok &= b.any(axis=0)
        done = todo[ok]
        zc[done], controllable[done] = zc_b[ok], controllable[done] & ctrl_b[ok]
        todo = todo[~ok]
    proven[todo] = zc[todo] = controllable[todo] = False
    return zc, controllable, proven


@dataclass(frozen=True)
class MonteCarloStats:
    """Agreement between a structural verdict and seeded exact trials.
    Trial i uses seed base_seed + i, so results are reproducible and
    independent of execution order.  ``inconsistent_trials`` counts the
    trials that the exact engine could not prove within its redraw budget;
    each takes the conservative "no" on both checks, and none is expected."""

    trials: int
    base_seed: int
    zc_structural: bool
    zc_agreements: int
    inconsistent_trials: int
    disagreeing_seeds: tuple[int, ...]
    ctrl_structural: bool | None = None
    ctrl_agreements: int | None = None

    @property
    def agreement_fraction(self) -> float:
        return self.zc_agreements / self.trials if self.trials else 1.0


def monte_carlo_verify(
    pattern_a: PatternMatrix,
    pattern_b: PatternMatrix | None = None,
    trials: int = 100,
    base_seed: int = DEFAULT_BASE_SEED,
    check_controllability: bool = False,
) -> MonteCarloStats:
    """Sample `trials` realizations over GF(p) and compare their exact zero-controllability verdicts (optionally
    also plain controllability) with the structural ones."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seeds, pattern_b = _seeds(base_seed, trials), _pair(pattern_a, pattern_b)
    plan = _gf_plan(pattern_a, pattern_b)
    # a trial costs about (n1 + k) * (nnz + m n1) + n1^2 operations; the trial count sets the total work
    zc_structural = not plan.k  # the survivors lie on or after an unreached cycle
    # a pair whose inputs reach every state is controllable exactly when [A B] has term rank n
    ctrl_structural = plan.n1 == plan.n == generic_rank(pattern_a.hstack(pattern_b)) if check_controllability else None
    chunk = max(1, _STACK_ENTRIES // plan.peak)
    zc, controllable, proven = map(np.concatenate, zip(*(
        _gf_decide(plan, seeds[start:start + chunk]) for start in range(0, trials, chunk))))
    return MonteCarloStats(
        trials=trials,
        base_seed=base_seed,
        zc_structural=zc_structural,
        zc_agreements=int(np.sum(zc == zc_structural)),
        inconsistent_trials=int(np.sum(~proven)),
        disagreeing_seeds=tuple(seeds[i] for i in np.flatnonzero(zc != zc_structural).tolist()),
        ctrl_structural=ctrl_structural,
        ctrl_agreements=int(np.sum(controllable == ctrl_structural)) if check_controllability else None,
    )
