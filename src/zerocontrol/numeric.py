"""Numerical cross-validation of structural verdicts: random admissible
realizations, rank and eigenvalue tests, deadbeat steering, Monte Carlo runs.

Structural claims are generic: they hold for all parameter values outside a
measure-zero set.  No finite computation certifies that, so this module
samples concrete realizations, runs the classical numeric tests, and reports
agreement statistics instead of pretending at certainty.

A pair is decided on the graph's reachable split (Kalman 1963): the reached
states, the unreached ones in Kahn's peel order, then the peel's survivors.  It
gives both structural verdicts: ZC exactly when nothing survives; not
controllable, in any realization either, when a state is unreached; else the
term rank decides.  Every realization has A21 = 0, B2 = 0 and a strictly
triangular peeled block there, so ZC(A, B) holds exactly when ZC(A11, B1) does
and the survivor block S is nilpotent.  C is zero on the unreached rows, so a
trial with S^n != 0 and an eigenvalue of S above the nonzero threshold is a
settled, consistent "no"; the others are decided on (A11, B1) over n steps.  A
"no" trial is flagged only when S fails one test alone or (A11, B1) is.

Monte Carlo trials are decided together: a chunk of seeded (A11, B1) blocks
gets its eigenvalues, controllability matrices, A^n and image ranks from one
stacked call each.  The Hautus pencils [A - lam I, B] are then decided in
rounds, one per eigenvalue position, among the trials whose walk still needs
that position; each walk stops at its first rank-deficient pencil.  Positions
run through each trial's eigenvalues smallest modulus first, where deficient
pencils tend to sit (the exact zeros, and the eps^(1/k) eigenvalues that
rounding smears out of nilpotent chains); the verdict, "no needed pencil is
deficient", does not depend on the order.  Each needed pencil P is decided by
one rule.  An exact repeat reuses its first decision, and the second of a
conjugate pair its partner's: the pencils are bit-equal or exactly conjugate,
and the complex SVD gives conjugate pencils bit-identical singular values.
Any other P tries a certificate, in the real dtype for a real lam: a Cholesky
factorization of P P^H shifted by theta^2 plus its rounding-error bound
proves sigma_min(P) > theta, over 10^3 rank cutoffs (Demmel 1989; Rump 2006).
Only a P it cannot prove takes one complex SVD, numeric_rank's test.  So the
verdicts are those of one complex SVD per eigenvalue.  numpy runs the same
LAPACK routine on each matrix of a stack, and a stack that Cholesky refuses is
halved down to single pencils, so a stacked decision, certificate or SVD, is
bit for bit the one-matrix one, whatever chunk a trial lands in.  The
single-realization checks are stacks of one, on the split of the realization's
own nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _reachable_split, build_graph
from .patterns import PatternMatrix, _pair
from .structural import generic_rank

#: Default base seed for every seeded entry point, so quick-start runs agree.
DEFAULT_BASE_SEED = 20240001

#: Default eigenvalue nonzero threshold scale of every numeric test, ``verify --tol`` included.
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
    (a,), b = _sample(pattern_a, pattern_b, _seeds(seed, 1), value_spec)
    return Realization(a[0], b[0], seed, value_spec)


def _seeds(base_seed: int, count: int) -> range:
    """The seeds of ``count`` realizations from ``base_seed`` on, refused before any work when negative."""
    if base_seed < 0:
        raise ValueError(f"seed must be >= 0, got {base_seed}")
    return range(base_seed, base_seed + count)


def _sample(pattern_a, pattern_b, seeds, value_spec, at=None, windows=None) -> tuple[list, np.ndarray]:
    """The realizations of the given seeds, stacked as (T, n, n) and (T, n, m); or, the same draws with state v
    at position at[v], only A's diagonal blocks over the position ``windows`` and B's rows in the first one."""
    pattern_b = _pair(pattern_a, pattern_b)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n, m = pattern_b.shape
    at, windows = (np.arange(-1, n), [(0, n)]) if at is None else (at, windows)
    blocks = [np.zeros((len(rngs), hi - lo, hi - lo)) for lo, hi in windows]
    b = np.zeros((len(rngs), windows[0][1], m))
    for inputs, pattern in enumerate((pattern_a, pattern_b)):
        if not len(pattern._coords[0]):
            continue
        rows, cols = pattern._coords
        ordered = np.lexsort((cols, rows))  # the sorted entry order: by row, then by column
        rows, cols = rows[ordered], cols[ordered]
        # per seed, two draws per entry in entry order: uniform magnitude, then sign
        draws = np.array([rng.random(2 * len(rows)) for rng in rngs])
        magnitude = value_spec.low + (value_spec.high - value_spec.low) * draws[:, 0::2]
        values = np.where(draws[:, 1::2] < 0.5, magnitude, -magnitude)
        if inputs:
            b[:, at[rows], cols - 1] = values
            continue
        rows, cols = at[rows], at[cols]
        for (lo, hi), block in zip(windows, blocks):
            inside = (lo <= rows) & (rows < hi) & (lo <= cols) & (cols < hi)
            block[:, rows[inside] - lo, cols[inside] - lo] = values[:, inside]
    return blocks, b


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
    if not 0 < tol < 1:  # NaN fails both comparisons
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if not a.shape[1]:
        return np.zeros((len(a), 0), dtype=complex), np.zeros((len(a), 0), dtype=bool)
    eigenvalues = np.linalg.eigvals(a).astype(complex, copy=False)
    modulus = np.abs(eigenvalues)
    return eigenvalues, modulus > tol * (1.0 + modulus.max(axis=1, keepdims=True))


def _check(image_ok: bool, hautus_ok: bool) -> NumericCheck:
    return NumericCheck(image_ok and hautus_ok, image_ok, hautus_ok, image_ok == hautus_ok)


#: Matrix entries per stacked LAPACK call: Monte Carlo trials are decided in
#: chunks that stay under it (one trial at least), so memory stays flat at any
#: n or trial count.
_STACK_ENTRIES = 2**18


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
    """One check on the split that the realization's own nonzeros give, as ``verify`` decides a trial."""
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
        blocks = _ctrb(a[None], b[None], horizon)[0].reshape(n, horizon, m)
        # column blocks reversed, to match the stacked unknown [u(0); ...; u(horizon-1)]
        gram = blocks[:, ::-1].reshape(n, horizon * m)
        rhs = -np.linalg.matrix_power(a, horizon) @ x0
        stacked, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        controls = stacked.reshape(horizon, m)
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


@dataclass(frozen=True)
class MonteCarloStats:
    """Agreement between a structural verdict and seeded numeric trials.
    Trial i uses seed base_seed + i, so results are reproducible and
    independent of execution order."""

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
    """Sample `trials` realizations and compare the numeric zero-controllability
    verdict (optionally also plain controllability) with the structural one."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seeds, pattern_b = _seeds(base_seed, trials), _pair(pattern_a, pattern_b)
    n, m = pattern_b.shape
    _, at, n1, k = _reachable_split(build_graph(pattern_a, pattern_b))  # which checks the block facts
    dense = n1 * n * (m + 1) + k * k  # [C, A^n] on the reached rows, and S
    check_dense_size(n, m, n, dense)
    drawn = 2 * len(pattern_a._coords[0]) + 2 * len(pattern_b._coords[0])  # the sampler's, per trial
    zc_structural = not k  # the survivors lie on or after an unreached cycle
    # a pair whose inputs reach every state is controllable exactly when [A B] has term rank n
    ctrl_structural = (n1 == n and generic_rank(pattern_a.hstack(pattern_b)) == n) if check_controllability else None
    zc_agree = ctrl_agree = inconsistent = 0
    disagreeing = []
    chunk = max(1, _STACK_ENTRIES // max(1, dense, drawn))
    for batch in (seeds[start:start + chunk] for start in range(0, trials, chunk)):
        (a11, s), b1 = _sample(pattern_a, pattern_b, batch, ValueSpec(), at, [(0, n1), (n - k, n)])
        (image, hautus), *ctrl = _split_decide(a11, b1, s, n, tol, True, check_controllability)
        zc = image & hautus
        zc_agree += int(np.sum(zc == zc_structural))
        disagreeing += [seed for seed, verdict in zip(batch, zc) if verdict != zc_structural]
        flagged = image != hautus  # a trial counts once, whichever check is inconsistent
        for ctrl_image, ctrl_hautus in ctrl:
            ctrl_agree += int(np.sum((ctrl_image & ctrl_hautus) == ctrl_structural))
            flagged |= ctrl_image != ctrl_hautus
        inconsistent += int(np.sum(flagged))
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
