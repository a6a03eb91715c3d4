"""Fisher information of the homodyne outcome distribution in (g1, g2).

Three routes are implemented and cross-validated:

* ``fisher_analytic``: the zero-mean Gaussian identity
  F_ij = tr(V^-1 dV_i V^-1 dV_j) / 2, exact at any squeezing level;
* ``fisher_monte_carlo``: sample outcomes, evaluate the analytic score per draw,
  average the outer products, and report elementwise standard errors;
* ``fisher_limit_closed_form``: the zero-squeezing and infinite-squeezing limit
  matrices, used as oracles for the analytic route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, _check_positive_definite
from .interferometer import InterferometerConfig, MeasuredModel
from .states import _check_disk

PSD_FLOOR = -1e-9

#: samples drawn per chunk; fixed so results are a function of (seed, samples) only
MC_CHUNK = 1 << 16

MIN_MC_SAMPLES = 1000
#: memory stays at one chunk; run time grows by about 0.5 s per million samples
MAX_MC_SAMPLES = 1_000_000_000

LIMIT_ZERO = "zero"
LIMIT_INFINITY = "infinity"


def _min_eigenvalue_2x2(a: float, b: float, c: float) -> float:
    """Smaller eigenvalue of the symmetric matrix [[a, b], [b, c]], in closed form."""
    return 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)


@dataclass(frozen=True, eq=False)
class FisherMatrix:
    """Symmetric positive-semidefinite 2x2 information matrix over (g1, g2)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.shape != (2, 2):
            raise ValidationError(f"Fisher matrix must be 2x2, got {m.shape}")
        (a, upper), (lower, c) = m.tolist()
        if not all(map(math.isfinite, (a, upper, lower, c))):
            raise ValidationError("Fisher matrix entries must be finite")
        scale = max(1.0, abs(a), abs(upper), abs(lower), abs(c))
        if abs(upper - lower) > 1e-12 * scale:
            raise ValidationError("Fisher matrix must be symmetric")
        if _min_eigenvalue_2x2(a, lower, c) < PSD_FLOOR * scale:
            raise ValidationError("Fisher matrix must be positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

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


def _measured_covariance(cfg: InterferometerConfig) -> np.ndarray:
    """V_r at the config's coherence, checked positive definite and well conditioned."""
    v = cfg.model.covariance(cfg.source.g1, cfg.source.g2)
    _check_positive_definite(v, "measured covariance")
    return v


def _score_kernels(model: MeasuredModel, v: np.ndarray):
    """Per component: the kernel V^-1 D_i V^-1 and the trace offset tr(V^-1 D_i)."""
    inv = np.linalg.inv(v)
    return [(inv @ d @ inv, float(np.trace(inv @ d))) for d in (model.d1, model.d2)]


def score_vectors(cfg: InterferometerConfig, outcomes: np.ndarray) -> np.ndarray:
    """Analytic scores d(log P)/d(g1, g2) for each outcome row; shape (n, 2).

    score_i(x) = -tr(V^-1 dV_i)/2 + x^T V^-1 dV_i V^-1 x / 2.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.ndim == 1:
        outcomes = outcomes[None, :]
    if outcomes.shape[1] != 4:
        raise ValidationError(f"outcomes must have 4 columns, got {outcomes.shape}")
    kernels = _score_kernels(cfg.model, _measured_covariance(cfg))
    scores = np.empty((outcomes.shape[0], 2))
    for i, (kernel, offset) in enumerate(kernels):
        quad = np.einsum("ni,ij,nj->n", outcomes, kernel, outcomes)
        scores[:, i] = 0.5 * (quad - offset)
    return scores


def fisher_analytic(cfg: InterferometerConfig) -> FisherMatrix:
    """Fisher information from the Gaussian trace identity; exact for any n_bar."""
    v = _measured_covariance(cfg)
    a1, a2 = (np.linalg.solve(v, d) for d in (cfg.model.d1, cfg.model.d2))
    f11 = 0.5 * float(np.trace(a1 @ a1))
    f22 = 0.5 * float(np.trace(a2 @ a2))
    f12 = 0.5 * float(np.trace(a1 @ a2))
    return FisherMatrix(np.array([[f11, f12], [f12, f22]]))


def fisher_monte_carlo(
    cfg: InterferometerConfig, samples: int, seed: int = 0
) -> MonteCarloFisher:
    """Monte Carlo Fisher estimate from ``samples`` homodyne draws.

    Outcomes are drawn from the measured-covariance Gaussian (Cholesky times
    standard normals) in fixed-size chunks from a single seeded generator, so the
    result is a deterministic function of (seed, samples). Reported standard
    errors are the sample standard deviations of the score products over sqrt(n).

    Args:
        cfg: interferometer configuration; the measured covariance must be
            positive definite.
        samples: number of draws, from MIN_MC_SAMPLES to MAX_MC_SAMPLES.
        seed: RNG seed for ``numpy.random.default_rng``.
    """
    if not MIN_MC_SAMPLES <= samples <= MAX_MC_SAMPLES:
        raise ValidationError(f"samples must be in [{MIN_MC_SAMPLES}, {MAX_MC_SAMPLES}]")
    v = _measured_covariance(cfg)
    chol = np.linalg.cholesky(v)
    (kernel1, offset1), (kernel2, offset2) = _score_kernels(cfg.model, v)
    rng = np.random.default_rng(seed)

    prod_sum = np.zeros(3)
    prod_sumsq = np.zeros(3)
    score_sum = np.zeros(2)
    score_sumsq = np.zeros(2)
    remaining = samples
    while remaining > 0:
        m = min(MC_CHUNK, remaining)
        remaining -= m
        z = rng.standard_normal((m, 4))
        x = z @ chol.T
        s1 = 0.5 * (np.einsum("ni,ij,nj->n", x, kernel1, x) - offset1)
        s2 = 0.5 * (np.einsum("ni,ij,nj->n", x, kernel2, x) - offset2)
        for k, prod in enumerate((s1 * s1, s1 * s2, s2 * s2)):
            prod_sum[k] += prod.sum()
            prod_sumsq[k] += (prod * prod).sum()
        for k, s in enumerate((s1, s2)):
            score_sum[k] += s.sum()
            score_sumsq[k] += (s * s).sum()

    n = float(samples)
    mean = prod_sum / n
    var = np.maximum(prod_sumsq / n - mean * mean, 0.0) * n / (n - 1.0)
    se = np.sqrt(var / n)
    s_mean = score_sum / n
    s_var = np.maximum(score_sumsq / n - s_mean * s_mean, 0.0) * n / (n - 1.0)

    entries = np.array([[mean[0], mean[1]], [mean[1], mean[2]]])
    se_matrix = np.array([[se[0], se[1]], [se[1], se[2]]])
    return MonteCarloFisher(
        fisher=FisherMatrix(entries),
        standard_error=se_matrix,
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
    diag_plus = base + (1.0 + g1 * g1 - g2 * g2) * eps_sq
    diag_minus = base + (1.0 - g1 * g1 + g2 * g2) * eps_sq
    off = 2.0 * g1 * g2 * eps_sq
    return FisherMatrix(prefactor * np.array([[diag_plus, off], [off, diag_minus]]))
