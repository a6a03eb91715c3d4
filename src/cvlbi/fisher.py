"""Fisher information of the homodyne outcome distribution in (g1, g2).

Three routes are implemented and cross-validated:

* ``fisher_analytic``: the zero-mean Gaussian identity
  F_ij = tr(V^-1 dV_i V^-1 dV_j) / 2, exact at any squeezing level;
* ``fisher_monte_carlo``: draw whitened outcomes, evaluate the analytic score per
  draw, average the outer products, and report elementwise standard errors;
* ``fisher_limit_closed_form``: the zero-squeezing and infinite-squeezing limit
  matrices, used as oracles for the analytic route.

The analytic route and the scores read V_r, its derivatives D_i and its Cholesky
factor L from the config, which builds each once. Scores use whitened coordinates:
with z = L^-1 x and W_i = L^-1 D_i L^-T, the score (x^T V^-1 D_i V^-1 x - tr V^-1 D_i) / 2
of an outcome x equals (z^T W_i z - tr W_i) / 2. Both kernels are held in eigen form,
W_i = Q_i diag(lambda_i) Q_i^T: the rows of U (8x4) are the eigenvectors of W_1
then W_2, and E (2x8) carries lambda_1 in row 0, columns 0-3, and lambda_2 in row 1,
columns 4-7. For whitened columns Z (4xm) both scores are then the rows of
(E (U Z)^2 - tr W) / 2, with the square taken entrywise: two matrix products per
block of outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DRAW_CHUNK, ValidationError, _check_integer, _check_outcomes
from .interferometer import InterferometerConfig
from .states import _check_disk, _check_flux

PSD_FLOOR = -1e-9

MIN_MC_SAMPLES = 1000
#: memory stays at one chunk; run time is about 0.11 s per million samples on one Xeon thread
MAX_MC_SAMPLES = 1_000_000_000

LIMIT_ZERO = "zero"
LIMIT_INFINITY = "infinity"

#: the factors of F_11, F_22 and F_12 in fisher_analytic's stacked product
_LEFT, _RIGHT = np.array([0, 1, 0]), np.array([0, 1, 1])


def _min_eigenvalue_2x2(a: float, b: float, c: float) -> float:
    """Smaller eigenvalue of the symmetric matrix [[a, b], [b, c]], in closed form."""
    return 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)


def _checked(a: float, upper: float, lower: float, c: float) -> np.ndarray:
    """[[a, upper], [lower, c]], read-only; rejected unless finite, symmetric and PSD."""
    if not all(map(math.isfinite, (a, upper, lower, c))):
        raise ValidationError("Fisher matrix entries must be finite")
    scale = max(1.0, abs(a), abs(upper), abs(lower), abs(c))
    if abs(upper - lower) > 1e-12 * scale:
        raise ValidationError("Fisher matrix must be symmetric")
    if _min_eigenvalue_2x2(a, lower, c) < PSD_FLOOR * scale:
        raise ValidationError("Fisher matrix must be positive semidefinite")
    m = np.array((a, upper, lower, c)).reshape(2, 2)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class FisherMatrix:
    """Symmetric positive-semidefinite 2x2 information matrix over (g1, g2)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (2, 2):
            raise ValidationError(f"Fisher matrix must be 2x2, got {m.shape}")
        object.__setattr__(self, "entries", _checked(*m.ravel().tolist()))

    @classmethod
    def _symmetric(cls, a: float, b: float, c: float) -> "FisherMatrix":
        """[[a, b], [b, c]] from three floats, checked as the constructor checks."""
        out = object.__new__(cls)
        out.__dict__["entries"] = _checked(a, b, b, c)
        return out

    @property
    def trace_norm(self) -> float:
        """Sum of absolute eigenvalues; equals the trace for PSD matrices."""
        return float(np.sum(np.abs(np.linalg.eigvalsh(self.entries))))


@dataclass(frozen=True, eq=False)
class MonteCarloFisher:
    """Monte Carlo Fisher estimate with elementwise standard errors.

    ``score_mean`` and ``score_se`` expose the per-component sample mean of the
    score and its standard error (the score has zero mean in truth).
    """

    fisher: FisherMatrix
    standard_error: np.ndarray
    score_mean: np.ndarray
    score_se: np.ndarray
    samples: int
    seed: int


def _score_kernel(cfg: InterferometerConfig):
    """L^-1 for the Cholesky factor L of V_r, and both W_i in eigen form: (U, E, tr W)."""
    li = np.linalg.inv(cfg.cholesky)
    (lam1, q1), (lam2, q2) = (np.linalg.eigh(li @ d @ li.T) for d in cfg.d)
    e = np.zeros((2, 8))
    e[0, :4], e[1, 4:] = lam1, lam2
    traces = np.array([[lam1.sum()], [lam2.sum()]])
    return li, (np.vstack([q1.T, q2.T]), e, traces)


def _scores(kernel, z: np.ndarray) -> np.ndarray:
    """Both scores (E (U Z)^2 - tr W) / 2 of whitened columns Z (4 x m), as a 2 x m array.

    In place after each product: one out-of-place expression, with the same bits,
    ran 5x slower (50 against 10 ms per million columns on one Xeon core)."""
    u, e, traces = kernel
    uz = u @ z
    np.square(uz, out=uz)
    s = e @ uz
    s -= traces
    s *= 0.5
    return s


def score_vectors(cfg: InterferometerConfig, outcomes: np.ndarray) -> np.ndarray:
    """Analytic scores d(log P)/d(g1, g2) per outcome row; shape (M, 2).

    ``outcomes`` is an (M >= 1) x 4 array of finite values.
    """
    rows = _check_outcomes(outcomes)
    li, kernel = _score_kernel(cfg)
    return _scores(kernel, li @ rows.T).T


def fisher_analytic(cfg: InterferometerConfig) -> FisherMatrix:
    """Fisher information from the Gaussian trace identity; exact for any n_bar.

    One stacked solve gives both A_i = V^-1 D_i; one stacked product gives A_i A_j."""
    a = np.linalg.solve(cfg.measured_covariance, cfg.d)
    f11, f22, f12 = (0.5 * (a.take(_LEFT, 0) @ a.take(_RIGHT, 0)).trace(axis1=1, axis2=2)).tolist()
    return FisherMatrix._symmetric(f11, f12, f22)


def _check_sampling(samples: int, seed: int) -> None:
    _check_integer("samples", samples, MIN_MC_SAMPLES, MAX_MC_SAMPLES)
    _check_integer("seed", seed, 0)


def fisher_monte_carlo(
    cfg: InterferometerConfig, samples: int, seed: int = 0
) -> MonteCarloFisher:
    """Monte Carlo Fisher estimate from ``samples`` homodyne draws.

    Each draw is a row z of standard normals: the whitened form of the outcome
    x = L z, scored as (z^T W_i z - tr W_i) / 2 without forming x. Rows come in
    chunks of DRAW_CHUNK from one seeded generator, so the result is a function
    of (seed, samples) only. Per chunk, the sums of the score products s_i s_j
    are the Gram matrix S S^T of the 2 x m scores S, and the sums of their
    squares are that of S squared entrywise. Reported standard errors are the
    sample standard deviations of the score products over sqrt(n).

    Args:
        cfg: interferometer configuration; the measured covariance must be
            positive definite.
        samples: number of draws, from MIN_MC_SAMPLES to MAX_MC_SAMPLES.
        seed: RNG seed for ``numpy.random.default_rng``.
    """
    _check_sampling(samples, seed)
    _, kernel = _score_kernel(cfg)
    rng = np.random.default_rng(seed)

    gram = np.zeros((2, 2))
    gram_sq = np.zeros((2, 2))
    score_sum = np.zeros(2)
    for start in range(0, samples, DRAW_CHUNK):
        # unnamed normals die with their chunk; named, they made glibc refault 1 MB per chunk
        s = _scores(kernel, rng.standard_normal((min(DRAW_CHUNK, samples - start), 4)).T)
        score_sum += s.sum(axis=1)
        gram += s @ s.T
        np.square(s, out=s)
        gram_sq += s @ s.T

    # S S^T is exactly symmetric, so the 2x2 statistics need no gather
    n = float(samples)
    mean = gram / n
    se = np.sqrt(np.maximum(gram_sq / n - mean * mean, 0.0) * n / (n - 1.0) / n)
    s_mean = score_sum / n
    s_var = np.maximum(np.diag(mean) - s_mean * s_mean, 0.0) * n / (n - 1.0)

    return MonteCarloFisher(
        fisher=FisherMatrix(mean),
        standard_error=se,
        score_mean=s_mean,
        score_se=np.sqrt(s_var / n),
        samples=samples,
        seed=seed,
    )


def fisher_limit_closed_form(
    eps: float, g1: float, g2: float, which: str
) -> FisherMatrix:
    """Closed-form Fisher limit matrices at zero and infinite squeezing.

    ``which`` selects the limit: LIMIT_ZERO ("zero") for n_bar -> 0 or
    LIMIT_INFINITY ("infinity") for n_bar -> infinity.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValidationError("epsilon must be > 0")
    _check_flux(eps)
    _check_disk(g1, g2)
    g_sq = g1 * g1 + g2 * g2
    eps_sq = eps * eps
    if which == LIMIT_ZERO:
        prefactor = (math.sqrt(2.0) * eps / (4.0 + 4.0 * eps - (g_sq - 1.0) * eps_sq)) ** 2
        base = 4.0 + 4.0 * eps
    elif which == LIMIT_INFINITY:
        prefactor = (eps / (1.0 + 2.0 * eps - (g_sq - 1.0) * eps_sq)) ** 2
        base = 1.0 + 2.0 * eps
    else:
        raise ValidationError(f"unknown limit {which!r}; use {LIMIT_ZERO!r} or {LIMIT_INFINITY!r}")
    diag_plus = prefactor * (base + (1.0 + g1 * g1 - g2 * g2) * eps_sq)
    diag_minus = prefactor * (base + (1.0 - g1 * g1 + g2 * g2) * eps_sq)
    off = prefactor * (2.0 * g1 * g2 * eps_sq)
    return FisherMatrix._symmetric(diag_plus, off, diag_minus)
