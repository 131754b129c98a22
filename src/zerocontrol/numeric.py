"""Numerical cross-validation of structural verdicts: random admissible
realizations, rank and eigenvalue tests, deadbeat steering, Monte Carlo runs.

Structural claims are generic: they hold for all parameter values outside a
measure-zero set.  No finite computation certifies that, so this module
samples concrete realizations, runs the classical numeric tests, and reports
agreement statistics instead of pretending at certainty.

One trial computes the eigenvalues, the controllability matrix and its rank
once for both checks, and decides each Hautus pencil [A - lam I, B] once per
conjugate class: a real lam takes a real SVD, and a conjugate reuses the
singular values of its partner's complex SVD.  Such a decision stands only
outside a guard band around the rank cutoff; inside it, the complex SVD of
that very pencil decides, so the verdicts are those of one complex SVD per
eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import PatternMatrix
from .structural import is_generically_controllable, is_generically_zero_controllable

#: Default base seed for every seeded entry point, so quick-start runs agree.
DEFAULT_BASE_SEED = 20240001

#: Relative singular-value cutoff for numeric rank decisions.
RANK_REL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ValueSpec:
    """Sampling law for realized nonzeros: sign uniform, magnitude uniform in
    [low, high].  The lower bound keeps realizations away from degenerate
    parameter choices."""

    low: float = 0.1
    high: float = 2.0


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
    """Deterministic realization for the given seed.  Entries are filled in
    sorted position order, so the draw sequence is part of the contract."""
    if not pattern_a.is_square:
        raise ValueError("state pattern must be square")
    rng = np.random.default_rng(seed)
    n = pattern_a.n_rows
    m = pattern_b.n_cols if pattern_b is not None else 0
    a, b = np.zeros((n, n)), np.zeros((n, m))
    for values, pattern in ((a, pattern_a), (b, pattern_b)):
        entries = pattern.sorted_entries() if pattern is not None else []
        if not entries:
            continue
        # two draws per entry, in entry order: uniform magnitude, then sign
        draws = rng.random(2 * len(entries))
        magnitude = value_spec.low + (value_spec.high - value_spec.low) * draws[0::2]
        rows, cols = (np.array(entries) - 1).T
        values[rows, cols] = np.where(draws[1::2] < 0.5, magnitude, -magnitude)
    return Realization(a, b, seed, value_spec)


def numeric_rank(matrix: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Rank with singular values below max(shape) * sigma_max * rel_tol
    treated as zero."""
    if matrix.size == 0:
        return 0
    return _rank(np.linalg.svd(matrix, compute_uv=False), matrix.shape, rel_tol)


def _rank(s: np.ndarray, shape: tuple[int, int], rel_tol: float = RANK_REL_TOL) -> int:
    """``numeric_rank`` of a matrix of this shape with singular values s."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(shape) * s[0] * rel_tol))


def controllability_matrix(realization: Realization) -> np.ndarray:
    """[B, AB, ..., A^(n-1)B], an n-by-(n*m) matrix (n-by-0 when m = 0)."""
    a, b = realization.a, realization.b
    n = realization.n
    blocks = []
    block = b
    for _ in range(n):
        blocks.append(block)
        block = a @ block
    return np.hstack(blocks) if blocks else np.zeros((n, 0))


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
    """The eigenvalues of the square matrix ``a``, and those of them counted as
    nonzero: modulus above tol * (1 + spectral radius)."""
    if not 0 < tol < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be positive and finite, got {tol}")
    eigenvalues = np.linalg.eigvals(a) if a.size else np.zeros(0)
    radius = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return eigenvalues, eigenvalues[np.abs(eigenvalues) > tol * (1.0 + radius)]


def _check(image_ok: bool, hautus_ok: bool) -> NumericCheck:
    return NumericCheck(image_ok and hautus_ok, image_ok, hautus_ok, image_ok == hautus_ok)


#: A pencil decision read off other singular values than the exact ones (the
#: complex SVD of that very pencil) stands only when the smallest of them lies
#: farther than this fraction of the rank cutoff from the cutoff, about 10^5
#: times the SVD rounding error; otherwise the exact SVD decides.
_GUARD_BAND = 1e-3


class _Trial:
    """The numeric work on one realization that both checks share: the
    eigenvalues, the controllability matrix and its rank, and one rank
    decision per distinct Hautus pencil [A - lam I, B]."""

    def __init__(self, realization: Realization, tol: float):
        self.a, self.b, self.n = realization.a, realization.b, realization.n
        self.eigenvalues, self.nonzero = _eigenvalues(self.a, tol)
        self.ctrb = controllability_matrix(realization)
        self.ctrb_rank = numeric_rank(self.ctrb)
        self._eye = np.eye(self.n)
        self._full_rank: dict[complex, bool] = {}  # eigenvalue -> pencil has rank n
        self._exact: dict[complex, np.ndarray] = {}  # eigenvalue -> complex-SVD spectrum

    def zero_controllable(self) -> NumericCheck:
        a_pow_n = np.linalg.matrix_power(self.a, self.n) if self.n else np.zeros((0, 0))
        image_ok = numeric_rank(np.hstack([self.ctrb, a_pow_n])) == self.ctrb_rank
        return _check(image_ok, self._hautus_ok(self.nonzero))

    def controllable(self) -> NumericCheck:
        return _check(self.ctrb_rank == self.n, self._hautus_ok(self.eigenvalues))

    def _hautus_ok(self, eigenvalues: np.ndarray) -> bool:
        # in eigenvalue order, stopping at the first rank-deficient pencil
        return all(self._pencil_full_rank(lam) for lam in eigenvalues)

    def _pencil_full_rank(self, lam: complex) -> bool:
        """Whether [A - lam I, B] has rank n, decided as the complex SVD of
        that pencil decides it.  A real lam takes the real SVD and a
        conjugate reuses its partner's spectrum, each unless the guard band
        sends it back to the complex SVD."""
        if lam in self._full_rank:
            return self._full_rank[lam]
        shape = (self.n, self.n + self.b.shape[1])
        if lam.imag == 0:
            s = np.linalg.svd(np.hstack([self.a - lam.real * self._eye, self.b]), compute_uv=False)
        else:
            s = self._exact.get(lam.conjugate())
        if s is not None:
            cut = max(shape) * s[0] * RANK_REL_TOL
            if not abs(s[-1] - cut) > _GUARD_BAND * cut:
                s = None
        if s is None:
            pencil = np.hstack([self.a - lam * self._eye, self.b]).astype(complex)
            s = self._exact[lam] = np.linalg.svd(pencil, compute_uv=False)
        full = self._full_rank[lam] = _rank(s, shape) == self.n
        return full


def is_controllable_numeric(realization: Realization, tol: float = 1e-8) -> NumericCheck:
    """Controllability of a concrete pair: full-rank controllability matrix,
    cross-checked by the Hautus rank test at every eigenvalue."""
    return _Trial(realization, tol).controllable()


def is_zero_controllable_numeric(realization: Realization, tol: float = 1e-8) -> NumericCheck:
    """Zero controllability of a concrete pair: the image of A^n must lie in
    the image of the controllability matrix, cross-checked by the Hautus test
    at every eigenvalue of modulus above tol * (1 + spectral radius)."""
    return _Trial(realization, tol).zero_controllable()


def count_nonzero_eigenvalues(realization: Realization, tol: float = 1e-8) -> int:
    """Number of eigenvalues with modulus above tol * (1 + spectral radius);
    for almost every realization this equals the structural cycle count
    nu(A)."""
    return len(_eigenvalues(realization.a, tol)[1])


@dataclass(frozen=True, eq=False)
class SteeringResult:
    """Deadbeat steering attempt: controls u(0..horizon-1), simulated
    trajectory x(0..horizon), and the norm of the final state."""

    controls: np.ndarray    # (horizon, m)
    trajectory: np.ndarray  # (horizon + 1, n)
    final_norm: float
    horizon: int


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
    x0 = np.asarray(x0, dtype=float).reshape(n)

    if m > 0:
        powers = [b]
        for _ in range(horizon - 1):
            powers.append(a @ powers[-1])
        # columns ordered for the stacked unknown [u(0); ...; u(horizon-1)]
        gram = np.hstack(powers[::-1])
        rhs = -np.linalg.matrix_power(a, horizon) @ x0
        stacked, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        controls = stacked.reshape(horizon, m)
    else:
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
    tol: float = 1e-8,
    check_controllability: bool = False,
) -> MonteCarloStats:
    """Sample `trials` realizations and compare the numeric zero-controllability
    verdict (optionally also plain controllability) with the structural one."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    zc_structural = is_generically_zero_controllable(pattern_a, pattern_b).verdict
    ctrl_structural = (
        is_generically_controllable(pattern_a, pattern_b).verdict
        if check_controllability
        else None
    )
    zc_agree = 0
    ctrl_agree = 0
    inconsistent = 0
    disagreeing = []
    for i in range(trials):
        seed = base_seed + i
        trial = _Trial(sample_realization(pattern_a, pattern_b, seed), tol)
        zc = trial.zero_controllable()
        if zc.verdict == zc_structural:
            zc_agree += 1
        else:
            disagreeing.append(seed)
        if not zc.consistent:
            inconsistent += 1
        if check_controllability:
            ctrl = trial.controllable()
            if ctrl.verdict == ctrl_structural:
                ctrl_agree += 1
            if not ctrl.consistent:
                inconsistent += 1
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
