"""Numerical cross-validation of structural verdicts: random admissible
realizations, exact and float rank tests, deadbeat steering, Monte Carlo runs.

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

``monte_carlo_verify`` (so ``verify``) decides every trial exactly over GF(p),
p = 2^31 - 1, with values drawn mod p from the trial's own stream.  S is not
nilpotent when S^k v' != 0 for a random v'.  (A11, B1) is decided with sparse
Krylov sequences (Wiedemann 1986): Berlekamp-Massey (Massey 1969), Euclid's
algorithm on the sequence (Dornstetter 1987), gives the dimension of the
controllable space and a cofactor, so one product mod its generator tests
A11^d v against it with no second Euclid (no Bernstein-Yang division steps),
and Horner's rule proves both; see ``_gf_krylov``.  Products fold mod the
Mersenne prime p with no division, stacked trials share each mat-vec, and a
trial decides alike in any chunk.  A verdict is wrong only with the small
probabilities stated at ``_P``; a trial that the engine cannot prove is
counted inconsistent and takes "no".

The float family runs behind the single-realization checks alone
(``is_zero_controllable_numeric``, ``is_controllable_numeric``), on the split
of the realization's own nonzeros.  (A11, B1) is decided over n steps by the
image test (rank [C, A^n] against rank C) and the Hautus test at every
eigenvalue of modulus above the nonzero threshold; C is zero on the unreached
rows, so S^n != 0 or a nonzero eigenvalue of S settles a "no".  A check is
consistent when the two tests agree, and its verdict is "both pass".  The
Hautus pencils [A - lam I, B] are decided in rounds, one per eigenvalue
position, smallest modulus first, where deficient pencils tend to sit; each
walk stops at its first rank-deficient pencil.  An exact repeat reuses its
first decision, and the second of a conjugate pair its partner's: the complex
SVD gives conjugate pencils bit-identical singular values.  Any other pencil P
tries a certificate, in the real dtype for a real lam: a Cholesky factorization
of P P^H shifted by theta^2 plus its rounding-error bound proves sigma_min(P) >
theta, over 10^3 rank cutoffs (Demmel 1989; Rump 2006).  Only a P it cannot
prove takes one complex SVD, numeric_rank's test.  So the verdicts are those of
one complex SVD per eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _reachable_split, build_graph
from .patterns import PatternMatrix, _pair
from .structural import generic_rank

#: Default base seed for every seeded entry point, so quick-start runs agree.
DEFAULT_BASE_SEED = 20240001

#: Default eigenvalue nonzero threshold scale of the float checks.  ``verify --tol`` takes it too, but only
#: validates it: exact verdicts use no threshold.
DEFAULT_TOL = 1e-8

#: Relative singular-value cutoff for numeric rank decisions.
RANK_REL_TOL = 1e-10

#: Most matrix entries the dense numeric work of one pair may need: over
#: ``steps`` steps (the horizon for steering; n for the Monte Carlo tests, on
#: the reached rows alone, plus the survivor block) it builds n-by-steps blocks,
#: one per input column and one for the state: 256 MiB each at 2^25 entries.
MAX_DENSE_ENTRIES = 2**25


def check_dense_size(n: int, m: int, steps: int, dense: int | None = None) -> None:
    """Refuse, before anything is allocated, dense work above MAX_DENSE_ENTRIES: the full pair's,
    or the ``dense`` entries of it that are made dense, when given."""
    full = n * max(n, steps) * (m + 1)
    entries = full if dense is None else dense
    if entries > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"n={n}, m={m} over {max(n, steps)} steps needs {entries} dense matrix entries"
            f"{'' if dense is None else f' ({full} on the full pair)'}, above the limit of {MAX_DENSE_ENTRIES}"
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
    one row per state; a missing input pattern means n-by-0, no inputs."""
    rng = np.random.default_rng(_seeds(seed, 1)[0])
    pattern_b = _pair(pattern_a, pattern_b)
    a, b = np.zeros(pattern_a.shape), np.zeros(pattern_b.shape)
    for matrix, pattern in ((a, pattern_a), (b, pattern_b)):
        rows, cols = _entries(pattern)
        if not len(rows):
            continue
        draws = rng.random(2 * len(rows))  # two per entry in entry order: uniform magnitude, then sign
        magnitude = value_spec.low + (value_spec.high - value_spec.low) * draws[0::2]
        matrix[rows - 1, cols - 1] = np.where(draws[1::2] < 0.5, magnitude, -magnitude)
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


def numeric_rank(matrix: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Rank with singular values below max(shape) * sigma_max * rel_tol
    treated as zero."""
    return int(_ranks(matrix[None], rel_tol)[0])


def _ranks(stack: np.ndarray, rel_tol: float = RANK_REL_TOL) -> np.ndarray:
    """``numeric_rank`` of each matrix of a (T, rows, cols) stack."""
    if stack.size == 0:
        return np.zeros(len(stack), dtype=int)
    s = np.linalg.svd(stack, compute_uv=False)
    return np.sum(s > max(stack.shape[1:]) * s[:, :1] * rel_tol, axis=1)


def controllability_matrix(realization: Realization) -> np.ndarray:
    """[B, AB, ..., A^(n-1)B], an n-by-(n*m) matrix (n-by-0 when m = 0)."""
    return _ctrb(realization.a[None], realization.b[None], realization.n)[0]


def _ctrb(a: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
    """The controllability matrix over ``steps`` steps of each pair of a (T, n, n), (T, n, m) stack."""
    blocks = [b]
    for _ in range(steps - 1):
        blocks.append(a @ blocks[-1])
    return np.concatenate(blocks, axis=2) if a.shape[1] else np.zeros((len(a), 0, 0))


@dataclass(frozen=True)
class NumericCheck:
    """Joint outcome of the image-based and eigenvalue-based (Hautus) rank
    tests.  The two must agree on well-conditioned instances; when they do
    not, ``consistent`` is False and the verdict is the conservative False."""

    verdict: bool
    image_test: bool
    hautus_test: bool
    consistent: bool

    def __bool__(self) -> bool:
        return self.verdict


def _eigenvalues(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of each matrix of a (T, n, n) stack, and the mask of
    those counted as nonzero: modulus above tol * (1 + spectral radius).  A tol
    of 1 or more would count none, since no modulus exceeds the radius."""
    _check_tol(tol)
    if not a.shape[1]:
        return np.zeros((len(a), 0), dtype=complex), np.zeros((len(a), 0), dtype=bool)
    eigenvalues = np.linalg.eigvals(a).astype(complex, copy=False)
    modulus = np.abs(eigenvalues)
    return eigenvalues, modulus > tol * (1.0 + modulus.max(axis=1, keepdims=True))


def _check_tol(tol: float) -> None:
    if not 0 < tol < 1:  # NaN fails both comparisons
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _check(image_ok: bool, hautus_ok: bool) -> NumericCheck:
    return NumericCheck(image_ok and hautus_ok, image_ok, hautus_ok, image_ok == hautus_ok)


def _decide(a: np.ndarray, b: np.ndarray, tol: float, zc: bool, ctrl: bool, power: int) -> list[tuple]:
    """Both numeric checks on a stack of realizations: one (image, hautus) pair of boolean arrays
    per asked check, zero controllability first, its image test over ``power`` steps."""
    lam, nonzero = _eigenvalues(a, tol)
    # smallest modulus first; stable, so a conjugate pair (bit-equal moduli) stays in order
    order = np.argsort(np.abs(lam), axis=1, kind="stable")
    lam, nonzero = np.take_along_axis(lam, order, 1), np.take_along_axis(nonzero, order, 1)
    t, n, _ = b.shape
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with one message
        ctrb = _ctrb(a, b, power)
        a_pow_n = np.linalg.matrix_power(a, power) if zc and n else a
    if not (np.isfinite(ctrb).all() and np.isfinite(a_pow_n).all()):
        raise ValueError(f"n={power}: the controllability matrix or A^n overflows float64, so no numeric verdict")
    ctrb_rank = _ranks(ctrb)
    images, walks = [], []
    if zc:
        images.append(_ranks(np.concatenate([ctrb, a_pow_n], axis=2)) == ctrb_rank)
        walks.append(nonzero)
    if ctrl:
        images.append(ctrb_rank == n)
        walks.append(np.ones_like(nonzero))
    alive = np.ones((len(images), t), dtype=bool)  # no rank-deficient pencil yet
    if not n:
        return list(zip(images, alive))
    walks = np.array(walks)  # (checks, T, n): the positions each Hautus walk covers
    full = np.zeros((t, n), dtype=bool)  # pencil at each position has rank n
    # an exact repeat or the second of a conjugate pair reuses the decision at its
    # value's first position: its pencil is bit-equal there, or exactly conjugate
    position, real = np.arange(n), lam.imag == 0
    source = ((lam[:, :, None] == lam[:, None, :]) | (lam[:, :, None] == lam[:, None, :].conj())).argmax(axis=1)
    ab = np.concatenate([a, b], axis=2)

    def pencils(rows, values):  # [A - lam I, B], bit for bit as a - lam * eye
        pencil = ab[rows].astype(values.dtype, copy=False)
        pencil[:, position, position] -= values[:, None]
        return pencil

    for j in range(n):
        need = (alive & walks[:, :, j]).any(axis=0)
        if not need.any():
            continue
        reuse = need & (source[:, j] < j)
        full[reuse, j] = full[reuse, source[reuse, j]]
        todo = need & ~reuse
        for rows, values in ((todo & real[:, j], lam[:, j].real), (todo & ~real[:, j], lam[:, j])):
            if rows.any():
                full[rows, j] = _certified(pencils(rows, values[rows]))
        todo &= ~full[:, j]
        if todo.any():
            full[todo, j] = _ranks(pencils(todo, lam[todo, j])) == n
        alive &= ~(walks[:, :, j] & ~full[:, j])
    return list(zip(images, alive))


def _certified(stack: np.ndarray) -> np.ndarray:
    """Which pencils of a (T, n, k) stack, k >= n, a shifted Gram-Cholesky test proves to have
    sigma_min > theta = 2e3 * k * RANK_REL_TOL * ||P||_F, 2 * 10^3 times numeric_rank's cutoff."""
    _, n, k = stack.shape
    # exact scaling to a largest entry in [1/2, 1): G = P P^H cannot overflow, nor underflow much
    _, e = np.frexp(np.abs(stack).max(axis=(1, 2)))
    p = np.ldexp(stack.view(float), -e[:, None, None]).view(stack.dtype)
    gram = p @ p.conj().swapaxes(1, 2)
    # With u = eps / 2, forming G errs by gamma_(k+2) ||P||_F^2 in the 2-norm, the shift by u tr(G),
    # and a Cholesky factorization that completes is exact for G - tau I + dH, ||dH|| <= gamma_(n+1)
    # tr(G) (Higham, Accuracy and Stability, Thm 10.5).  At 4u per term for complex arithmetic,
    # success proves lambda_min(P P^H) >= tau - 4 (n + k + 4) u tr(G) = theta^2; never when P = 0.
    shift = (2e3 * k * RANK_REL_TOL) ** 2 + 2 * (n + k + 4) * np.finfo(float).eps  # tau / tr(G)
    gram[:, range(n), range(n)] -= np.trace(gram, axis1=1, axis2=2).real[:, None] * shift

    def factors(g):  # np.linalg.cholesky refuses a stack as a whole: halve a refused one down to single pencils
        try:
            np.linalg.cholesky(g)
            return np.ones(len(g), dtype=bool)
        except np.linalg.LinAlgError:
            if len(g) == 1:
                return np.zeros(1, dtype=bool)
        return np.concatenate([factors(g[:len(g) // 2]), factors(g[len(g) // 2:])])

    return factors(gram)


def _split_decide(a11, b1, s, n: int, tol: float, zc: bool, ctrl: bool) -> list[tuple]:
    """``_decide``'s checks on split realizations of n states: (A11, B1) on the reached ones, S on the
    peel's survivors, each (image, hautus) pair as the whole pair gives it in exact arithmetic."""
    if a11.shape[1] == n:  # every state reached: the split is the identity
        return _decide(a11, b1, tol, zc, ctrl, n)
    no = np.zeros(len(a11), dtype=bool)
    # C's unreached rows are zero: S^n != 0 fails the image test, a nonzero eigenvalue of S the Hautus test
    hautus = ~_eigenvalues(s, tol)[1].any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed S^n is nonzero too
        image = ~np.linalg.matrix_power(s, n).any(axis=(1, 2))
    todo = (image | hautus) & zc
    if a11.shape[1] and todo.any():
        for verdict, block_verdict in zip((image, hautus), _decide(a11[todo], b1[todo], tol, True, False, n)[0]):
            verdict[todo] &= block_verdict
    return [(image, hautus)] * zc + [(no, no)] * ctrl


def is_controllable_numeric(realization: Realization, tol: float = DEFAULT_TOL) -> NumericCheck:
    """Controllability of a concrete pair: full-rank controllability matrix,
    cross-checked by the Hautus rank test at every eigenvalue."""
    return _single(realization, tol, zc=False)


def is_zero_controllable_numeric(realization: Realization, tol: float = DEFAULT_TOL) -> NumericCheck:
    """Zero controllability of a concrete pair: the image of A^n must lie in
    the image of the controllability matrix, cross-checked by the Hautus test
    at every eigenvalue of modulus above tol * (1 + spectral radius)."""
    return _single(realization, tol, zc=True)


def _single(realization: Realization, tol: float, zc: bool) -> NumericCheck:
    """One realization decided by the float image and Hautus tests, on the split that its own nonzeros give;
    only the public single checks run it, as ``verify`` decides its trials exactly."""
    a, b = realization.a, realization.b  # np.nonzero(v.T) runs by column, then row, as PatternMatrix._coords
    patterns = [PatternMatrix._trusted(*v.shape, *np.array(np.nonzero(v.T))[::-1] + 1) for v in (a, b)]
    order, _, n1, k = _reachable_split(build_graph(*patterns))
    reached, survivors = order[:n1] - 1, order[len(order) - k:] - 1
    [(image, hautus)] = _split_decide(a[np.ix_(reached, reached)][None], b[reached][None],
                                      a[np.ix_(survivors, survivors)][None], len(order), tol, zc, not zc)
    return _check(bool(image[0]), bool(hautus[0]))


def count_nonzero_eigenvalues(realization: Realization, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues with modulus above tol * (1 + spectral radius).  Generically that is nu(A), but
    not in float as n grows, where rounding smears nilpotent chains: on four draws of 15 patterns with 2n entries
    and 4 seeds each, it matched nu(A) on 58-60 of 60 at n = 12, 22-55 at n = 40 and 4-9 at n = 100."""
    return int(_eigenvalues(realization.a[None], tol)[1].sum())


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
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    a, b = realization.a, realization.b
    n, m = realization.n, realization.m
    check_dense_size(n, m, horizon)
    x0 = np.asarray(x0, dtype=float).reshape(n)

    if m > 0:
        # column block k is A^(horizon-1-k) B, to match the stacked unknown [u(0); ...; u(horizon-1)],
        # written in place from the last block down, so the Gram is the only copy
        gram = np.empty((n, horizon * m))
        blocks = gram.reshape(n, horizon, m).transpose(1, 0, 2)
        blocks[-1] = b
        for k in range(horizon - 2, -1, -1):
            np.matmul(a, blocks[k + 1], out=blocks[k])
        rhs = -np.linalg.matrix_power(a, horizon) @ x0
        if np.isfinite(gram).all() and np.isfinite(rhs).all():
            controls = np.linalg.lstsq(gram, rhs, rcond=None)[0].reshape(horizon, m)
        else:  # LAPACK refuses an overflowed system, and some builds print to stderr first
            controls = np.full((horizon, m), np.nan)
    else:  # nothing to solve for, so no power of A is taken
        controls = np.zeros((horizon, 0))

    trajectory = np.empty((horizon + 1, n))
    trajectory[0] = x0
    for k in range(horizon):
        trajectory[k + 1] = a @ trajectory[k] + b @ controls[k]
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
_P = 2**31 - 1

#: The spawn key of each trial's exact stream: PCG64 seeded by SeedSequence(base_seed + i) with this key, apart
#: from the float stream of that seed that ``sample_realization`` reads.  A trial draws its 64-bit words once, for
#: its values mod _P and then its random vectors, and once more for each redraw of u.
_GF_KEY = (1,)

#: Draws of the left vector u a trial may take; a trial that none of them proves counts as inconsistent and
#: takes the conservative "no".  One draw fails with probability at most (n1 + 1) / _P.
_GF_DRAWS = 3

#: Most array entries of one chunk of stacked trials, so memory stays flat at any n or trial count.
_STACK_ENTRIES = 2**18


def _gf_stream(seed: int) -> np.random.PCG64:
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=_GF_KEY))


def _residues(words: np.ndarray, low: int = 0) -> np.ndarray:
    """64-bit words as residues in [low, _P), each within 2^-32 of uniform: values are nonzero, vectors need not be."""
    return (words % np.uint64(_P - low)).astype(np.int64) + low


def _gf_plan(pattern_a: PatternMatrix, pattern_b: PatternMatrix, at: np.ndarray, n1: int, k: int) -> tuple:
    """Where a trial's drawn values go on the split.  The values are drawn per entry in ``_entries`` order, A's
    then B's.  Returns the mat-vec plans of A11, of A11 and its transpose side by side (block diagonal), and of
    S; then, for B1, the indices of its values, their rows and their columns."""
    rows, cols = (at[v] for v in _entries(pattern_a))
    lo = len(at) - 1 - k  # the first survivor's position
    a11, s = (rows < n1) & (cols < n1), (rows >= lo) & (cols >= lo)
    index, r, c = np.flatnonzero(a11), rows[a11], cols[a11]
    blocks = (_mv_plan(index, r, c), _mv_plan(np.r_[index, index], np.r_[r, c + n1], np.r_[c, r + n1]),
              _mv_plan(np.flatnonzero(s), rows[s] - lo, cols[s] - lo))
    b_rows, b_cols = _entries(pattern_b)
    return blocks, (len(rows) + np.arange(len(b_rows)), at[b_rows], b_cols - 1)


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
    """Sums mod _P over the first axis of x y, each product folded first."""
    return _fold(x * y).sum(axis=0) % _P


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


def _gf_krylov(a11: tuple, both: tuple, values: np.ndarray, b: np.ndarray, v: np.ndarray, u: np.ndarray) -> tuple:
    """ZC and controllability over GF(_P) of stacked pairs (A11, b) of one input, after Wiedemann (1986), with
    random vectors v and u; vectors are (n1, T), ``values`` (drawn, T), ``a11`` and ``both`` the plans of A11 and
    of A11 beside its transpose.  Returns which trials are proven, which are ZC and which are controllable.

    (i) a_j = u A^j b for j < 2 n1 has minimal generator f, of degree r, by Berlekamp-Massey.  (ii) f(A) b = 0
    proves that r is the dimension of K, the Krylov space of b; else u was unlucky.  (iii) The quotient by K has
    dimension d = n1 - r, so it is nilpotent exactly when A^d maps every vector into K, and w = A^d v for a
    random v lands in K otherwise with probability at most 1 / _P.  (iv) w = h(A) b, deg h < r, has h N_a = N_c
    (mod f), N_a and N_c the polynomial parts of f(z) sum a_j z^-(j+1) and f(z) sum c_j z^-(j+1), c_j = u A^j w.
    Berlekamp-Massey's q' has N_a q' = kappa != 0 (mod f), so kappa h = N_c q' mod f, in O(r^2) work; and sigma
    = sum_i (N_a q')_i a_i is kappa a_0, as f generates a.  If a_0 = u b = 0, u was unlucky (r = 0, where b = 0
    and h = 0, takes sigma = 1).  (v) a_0 kappa h(A) b = sigma w, by Horner from degree max(r, d), proves w in
    K, and its failure proves w outside it, h being unique.  Controllability is r = n1."""
    n1, t = b.shape
    a, e = np.empty((2 * n1 + 1, t), dtype=np.int64), np.empty((n1 + 1, t), dtype=np.int64)
    xy, vals = np.concatenate([b, u])[:, None], values[both[0]]  # A^k b above (A^T)^k u
    dots = np.stack([b, b, v], axis=1)  # A^(k-1) b, A^k b and v, each dotted with (A^T)^k u
    a[0], e[0] = _gf_dot(dots[:, 1:], u[:, None])
    for k in range(n1):  # a_2k+1 = (A^T)^(k+1) u . A^k b, a_2k+2 and e_k+1 = u A^(k+1) v in one dot
        xy = _gf_matvec(xy, vals, both)
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
        y = _gf_matvec(y, vals, a11) if i < start else y
        y += _fold(coefficients[i, :2] * b[:, None])
        y[:, 1] += _fold(coefficients[i, 2] * v)
        y %= _P
    return ~y[:, 0].any(axis=0) & (sigma != 0), ~y[:, 1].any(axis=0), r == n1


def _gf_dense(block: tuple, vals: np.ndarray, b: np.ndarray, v: np.ndarray) -> tuple[bool, bool]:
    """ZC and controllability of one pair (A11, B1) over GF(_P) by Gaussian elimination: rank K against n1, and
    whether w = A11^d v, d = n1 - rank K, lies in K.  K's columns are eliminated a block A11^j B1 at a time, and a
    block that adds no rank ends K, since every later block lies in the span too.  ``vals`` is (entries, 1), b
    (n1, m) and v (n1,)."""
    n1 = len(b)
    basis, pivots = np.zeros((0, n1), dtype=np.int64), []  # each row 1 at its pivot and 0 at the others'

    def grows(vector):  # add the vector's residual against the span, if it is not zero
        nonlocal basis
        residual = (vector - _gf_dot(basis, vector[pivots][:, None])) % _P
        if not residual.any():
            return False
        pivot = int(np.argmax(residual != 0))
        residual = residual * pow(int(residual[pivot]), -1, _P) % _P
        basis = np.vstack([(basis - basis[:, pivot, None] * residual % _P) % _P, residual])
        pivots.append(pivot)
        return True

    x = b[:, :, None]
    while sum([grows(column) for column in x[:, :, 0].T]) and len(pivots) < n1:  # every column, then the count
        x = _gf_matvec(x, vals, block)
    rank, w = len(pivots), v[:, None, None]
    for _ in range(n1 - rank):
        w = _gf_matvec(w, vals, block)
    return not grows(w[:, 0, 0]), rank == n1


def _gf_decide(plan: tuple, n: int, m: int, n1: int, k: int, words: np.ndarray, streams: list, ctrl: bool) -> tuple:
    """Exact verdicts of a chunk of trials over GF(_P) on the reachable split, where ZC(A, B) holds exactly when
    ZC(A11, B1) does and S is nilpotent.  ``words`` holds each trial's first draw, one row per trial: its values,
    one per entry, then alpha, v', v and u; ``streams`` give each redraw of u.  Returns per trial whether it is
    ZC, whether it is controllable and whether it was proven.

    (vi) S^k v' != 0 proves that S is not nilpotent.  With m > 1 inputs the Krylov steps run on b = B1 alpha:
    K(A11, b) lies inside K(A11, B1), so a "yes" there is a "yes" for B1.  A "no" proves nothing about B1, so it
    falls back to ``_gf_dense``."""
    (a11, both, s), (b_index, b_rows, b_cols) = plan
    t, drawn = words.shape[0], words.shape[1] - m - k - 2 * n1
    values = _residues(words[:, :drawn].T, 1)
    alpha, v_s, v, u = np.split(_residues(words[:, drawn:].T), np.cumsum([m, k, n1]))
    zc, controllable, proven = np.ones(t, dtype=bool), np.full(t, n1 == n), np.ones(t, dtype=bool)
    if k:
        x, vals = v_s[:, None], values[s[0]]
        for _ in range(k):
            x = _gf_matvec(x, vals, s)
        zc = ~x.any(axis=(0, 1))
    todo = np.flatnonzero((zc | ctrl & controllable) & (n1 > 0))
    if not len(todo):
        return zc, controllable, proven
    b1 = np.zeros((n1, m, t), dtype=np.int64)
    b1[b_rows, b_cols] = values[b_index]
    b = _gf_dot(b1.swapaxes(0, 1), alpha[:, None])
    u = u[:, todo]
    for draw in range(_GF_DRAWS):
        if draw:
            u = _residues(np.array([streams[i].random_raw(n1) for i in todo]).T)
        ok, zc_b, ctrl_b = _gf_krylov(a11, both, values[:, todo], b[:, todo], v[:, todo], u)
        done = todo[ok]
        zc[done], controllable[done] = zc_b[ok], controllable[done] & ctrl_b[ok]
        for i in done[~zc[done] | ctrl & (n1 == n) & ~controllable[done]] if m > 1 else ():
            zc[i], controllable[i] = _gf_dense(a11, values[a11[0], i, None], b1[..., i], v[:, i])
            controllable[i] &= n1 == n
        todo = todo[~ok]
        if not len(todo):
            break
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
    tol: float = DEFAULT_TOL,
    check_controllability: bool = False,
) -> MonteCarloStats:
    """Sample `trials` realizations over GF(p) and compare their exact zero-controllability verdicts (optionally
    also plain controllability) with the structural ones.  ``tol`` is only validated: exact verdicts use no
    threshold."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seeds, pattern_b = _seeds(base_seed, trials), _pair(pattern_a, pattern_b)
    _check_tol(tol)
    n, m = pattern_b.shape
    _, at, n1, k = _reachable_split(build_graph(pattern_a, pattern_b))  # which checks the block facts
    check_dense_size(n, m, n, n1 * n * (m + 1) + k * k)  # the float blocks' refusal; it bounds the m > 1 fallback's K
    zc_structural = not k  # the survivors lie on or after an unreached cycle
    # a pair whose inputs reach every state is controllable exactly when [A B] has term rank n
    ctrl_structural = (n1 == n and generic_rank(pattern_a.hstack(pattern_b)) == n) if check_controllability else None
    zc_agree = ctrl_agree = inconsistent = 0
    disagreeing = []
    plan = _gf_plan(pattern_a, pattern_b, at, n1, k)
    drawn = len(pattern_a._coords[0]) + len(pattern_b._coords[0]) + m + k + 2 * n1  # values, alpha, v', v, u
    # per trial: A's entries gathered for two vectors, the Krylov sequences and polynomials, and S's vector
    chunk = max(1, _STACK_ENTRIES // max(2 * len(pattern_a._coords[0]) + 16 * n1 + k, drawn, 1))
    for batch in (seeds[start:start + chunk] for start in range(0, trials, chunk)):
        streams = [_gf_stream(seed) for seed in batch]
        words = np.array([stream.random_raw(drawn) for stream in streams])
        zc, controllable, proven = _gf_decide(plan, n, m, n1, k, words, streams, check_controllability)
        zc_agree += int(np.sum(zc == zc_structural))
        disagreeing += [seed for seed, verdict in zip(batch, zc) if verdict != zc_structural]
        ctrl_agree += int(np.sum(controllable == ctrl_structural))
        inconsistent += int(np.sum(~proven))
    return MonteCarloStats(
        trials=trials,
        base_seed=base_seed,
        zc_structural=zc_structural,
        zc_agreements=zc_agree,
        inconsistent_trials=inconsistent,
        disagreeing_seeds=tuple(disagreeing),
        ctrl_structural=ctrl_structural,
        ctrl_agreements=ctrl_agree if check_controllability else None,
    )
