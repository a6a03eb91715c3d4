"""End-to-end statistical validation: sampling, likelihood, MLE, and the CRB check.

Homodyne records are drawn from the measured-outcome Gaussian, the mutual
coherence (g1, g2) is estimated by maximum likelihood over the closed unit disk
with the remaining parameters (epsilon, n_bar, theta) treated as known, and the
spread of the estimator across replications is compared against the Cramer-Rao
bound F^-1 / M.

The likelihood and its gradient depend on the data only through the empirical
second-moment matrix, so each optimizer step costs a few 4x4 operations no
matter how many shots a record holds. The replications of the CRB experiment
are fitted in lockstep: each optimizer round evaluates the pending points of
every start of every replication, boundary-polish points on the unit circle
included, in one stacked 4x4 likelihood call, with the same bits as fitting
the records one by one. Replication seeds are spawned from the master seed
with ``numpy.random.SeedSequence``, making multi-replication runs reproducible
across machines. The choice of maximum likelihood is this package's, it is
standard but not imposed by the problem; result records are labeled
accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ConvergenceError, ValidationError
from .fisher import _measured_covariance, fisher_analytic
from .interferometer import InterferometerConfig, MeasuredModel
from .states import _check_disk

LOG_2PI = math.log(2.0 * math.pi)

GRADIENT_TOL = 1e-8
MAX_ITERATIONS = 500
MIN_REPLICATIONS = 30
#: a record holds 32 bytes per shot, so the largest one takes 320 MB
MAX_SHOTS = 10_000_000
#: replications keep 128 bytes of moments plus one fit each; run time grows with them
MAX_REPLICATIONS = 100_000

#: rows generated per chunk when sampling large records
_SAMPLE_CHUNK = 1 << 20

#: asymptotic-efficiency acceptance window on trace(cov_hat) / trace(CRB)
EFFICIENCY_WINDOW = (0.8, 1.5)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """M homodyne shots over (x_A1, p_A2, x_B1, p_B2) plus their provenance."""

    outcomes: np.ndarray
    seed: int
    config: InterferometerConfig

    def __post_init__(self):
        m = np.asarray(self.outcomes, dtype=float)
        if m.ndim != 2 or m.shape[1] != 4 or m.shape[0] < 1:
            raise ValidationError(f"outcomes must be an (M >= 1) x 4 array, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("outcomes must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "outcomes", m)

    @property
    def shots(self) -> int:
        return self.outcomes.shape[0]

    @cached_property
    def second_moment(self) -> np.ndarray:
        """Empirical second-moment matrix X^T X / M, the likelihood's sufficient statistic."""
        s = self.outcomes.T @ self.outcomes / self.shots
        return (s + s.T) / 2.0


@dataclass(frozen=True, eq=False)
class MleResult:
    """Maximum-likelihood estimate of (g1, g2) with optimizer diagnostics."""

    g1: float
    g2: float
    log_likelihood: float
    gradient_norm: float
    iterations: int
    on_boundary: bool

    @property
    def g(self) -> tuple[float, float]:
        return (self.g1, self.g2)


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Replicated-MLE spread against the Cramer-Rao bound."""

    config: InterferometerConfig
    shots: int
    replications: int
    seed: int
    g_hat_mean: tuple[float, float]
    covariance_hat: np.ndarray
    crb: np.ndarray
    trace_ratio: float
    efficiency_ok: bool
    min_eig_gap: float
    min_eig_slack: float
    crb_respected: bool
    boundary_count: int
    #: per-replication fits, in replication order
    fits: tuple[MleResult, ...]

    def to_json_dict(self) -> dict:
        src, res = self.config.source, self.config.resource
        return {
            "config": {
                "epsilon": src.epsilon,
                "g1": src.g1,
                "g2": src.g2,
                "n_bar": res.n_bar,
                "theta": res.theta,
            },
            "shots": self.shots,
            "replications": self.replications,
            "g_hat_mean": list(self.g_hat_mean),
            "cov_hat": self.covariance_hat.tolist(),
            "crb": self.crb.tolist(),
            "trace_ratio": self.trace_ratio,
            "seed": self.seed,
            "estimator": "mle",
            "efficiency_ok": self.efficiency_ok,
            "min_eig_gap": self.min_eig_gap,
            "min_eig_slack": self.min_eig_slack,
            "crb_respected": self.crb_respected,
            "boundary_count": self.boundary_count,
        }


def sample_records(cfg: InterferometerConfig, shots: int, seed) -> MeasurementRecord:
    """Draw M i.i.d. zero-mean outcomes with the measured covariance.

    Rows are Cholesky factor times standard normals, generated in fixed-size
    chunks from a single seeded generator; the record is deterministic per seed.
    ``seed`` may be an int or a ``numpy.random.SeedSequence`` (used internally
    for replication splits).
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValidationError(f"shots must be in [1, {MAX_SHOTS}]")
    chol = np.linalg.cholesky(_measured_covariance(cfg))
    rng = np.random.default_rng(seed)
    out = np.empty((shots, 4))
    start = 0
    while start < shots:
        stop = min(start + _SAMPLE_CHUNK, shots)
        out[start:stop] = rng.standard_normal((stop - start, 4)) @ chol.T
        start = stop
    seed_value = seed if isinstance(seed, (int, np.integer)) else -1
    return MeasurementRecord(outcomes=out, seed=int(seed_value), config=cfg)


def _nll_and_grad(model: MeasuredModel, s: np.ndarray, g: np.ndarray):
    """Per-shot negative log-likelihood and its gradient in (g1, g2), row by row.

    Row i takes the second moment s[i] (n x 4 x 4) at the coherence g[i] (n x 2):
    nll = (log det V + tr(V^-1 S) + 4 log 2pi) / 2 with V = V_r(g[i]), and the
    gradient uses the same trace algebra as the Fisher score. Returns (values[n],
    grads[n, 2]). The stacked LAPACK and BLAS calls give every row the bits of
    the one-matrix call, so how points are batched never changes a result.
    """
    v = model.covariance(g[:, 0, None, None], g[:, 1, None, None])
    chol = np.linalg.cholesky(v)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    v_inv = np.linalg.inv(v)
    values = 0.5 * (logdet + np.trace(v_inv @ s, axis1=1, axis2=2) + 4.0 * LOG_2PI)
    grads = np.empty((len(g), 2))
    for k, dk in enumerate((model.d1, model.d2)):
        a = v_inv @ dk
        grads[:, k] = 0.5 * (
            np.trace(a, axis1=1, axis2=2) - np.trace(a @ v_inv @ s, axis1=1, axis2=2)
        )
    return values, grads


def log_likelihood(record: MeasurementRecord, g1: float, g2: float) -> float:
    """Total log-likelihood of the record at coherence (g1, g2); |g| <= 1 required."""
    _check_disk(g1, g2)
    values, _ = _nll_and_grad(
        record.config.model, record.second_moment[None], np.array([[g1, g2]])
    )
    return -record.shots * float(values[0])


def log_likelihood_gradient(record: MeasurementRecord, g1: float, g2: float) -> np.ndarray:
    """Gradient of the total log-likelihood in (g1, g2)."""
    _check_disk(g1, g2)
    _, grads = _nll_and_grad(
        record.config.model, record.second_moment[None], np.array([[g1, g2]])
    )
    return -record.shots * grads[0]


def _project_disk(g: np.ndarray) -> np.ndarray:
    norm = math.hypot(g[0], g[1])
    if norm <= 1.0:
        return g
    return g / norm


def _brentq(f, xa: float, xb: float, xtol: float):
    """Root of f in the sign-changing bracket [xa, xb] by Brent's method.

    A step-for-step port of SciPy's ``brentq`` (inverse quadratic or secant
    step when it is short enough, bisection otherwise, relative tolerance
    4 * machine epsilon), so it returns the same root to the last bit. A
    generator over the generator ``f``: it reads each value as ``yield from
    f(x)``, so the points ``f`` yields reach the caller, and returns the root.
    """
    rtol = 4.0 * np.finfo(float).eps
    xpre, xcur = xa, xb
    fpre = yield from f(xpre)
    fcur = yield from f(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValidationError("f(xa) and f(xb) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):  # SciPy's default iteration cap
        if fpre and fcur and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = yield from f(xcur)
    raise ConvergenceError("root finder did not converge in 100 iterations")


def _boundary_polish(x: np.ndarray, f: float, grad: np.ndarray):
    """Slide along the unit circle to a tangentially stationary point.

    Used when the iterate is pinned on the boundary with an inward-pointing
    gradient; the remaining freedom is the angle, where a bracketed root of the
    tangential derivative converges far faster than projected steps. A
    generator like ``_projected_bfgs``: it yields each circle point it needs
    evaluated, none twice, and returns the new (x, f, grad).
    """
    phi = math.atan2(x[1], x[0])
    cache: dict[float, tuple] = {}

    def tangential(angle: float):
        if angle not in cache:
            point = np.array([math.cos(angle), math.sin(angle)])
            cache[angle] = (point, *(yield point))
        point, _, g = cache[angle]
        return float(g @ np.array([-point[1], point[0]]))

    d0 = yield from tangential(phi)
    if d0 == 0.0:
        return x, f, grad
    width = 1e-3
    other = phi
    while width <= math.pi:
        other = phi - math.copysign(width, d0)
        if (yield from tangential(other)) * d0 < 0.0:
            break
        width *= 2.0
    else:
        return x, f, grad
    root = yield from _brentq(tangential, min(phi, other), max(phi, other), xtol=1e-15)
    point, f_new, grad_new = cache[root]  # Brent's method returns a point it evaluated
    if f_new <= f:
        return point, f_new, grad_new
    return x, f, grad


def _projected_bfgs(x0: np.ndarray):
    """Minimize over the closed unit disk: BFGS directions, projected steps.

    A generator: it yields each point it needs evaluated and is sent (f, grad)
    at that point, so one caller can evaluate the points of many runs in one
    stacked call; it returns (x, f, pg_norm, iterations). The points of the
    boundary refinement are yielded the same way.

    Convergence is declared when the projected-gradient displacement
    ||x - proj(x - grad)|| falls below GRADIENT_TOL (the plain gradient norm at
    interior points). Boundary-pinned iterates are refined along the circle.
    Raises ConvergenceError with the best iterate after MAX_ITERATIONS.
    """
    x = _project_disk(np.asarray(x0, dtype=float))
    f, grad = yield x
    h = np.eye(2)
    for iteration in range(MAX_ITERATIONS):
        pg = x - _project_disk(x - grad)
        pg_norm = float(np.linalg.norm(pg))
        if pg_norm <= GRADIENT_TOL:
            return x, f, pg_norm, iteration
        if math.hypot(x[0], x[1]) >= 1.0 - 1e-12 and float(grad @ x) <= 0.0:
            x_new, f_new, grad_new = yield from _boundary_polish(x, f, grad)
            if np.array_equal(x_new, x):
                # tangentially stationary at float resolution
                return x, f, pg_norm, iteration
            x, f, grad = x_new, f_new, grad_new
            continue
        direction = -h @ grad
        if float(direction @ grad) >= 0.0:
            direction = -grad
        step = 1.0
        x_new = f_new = grad_new = None
        while step > 1e-20:
            candidate = _project_disk(x + step * direction)
            f_cand, g_cand = yield candidate
            # Armijo on the projected displacement; the strict decrease guards
            # against accepting zero-progress steps on the float plateau
            if f_cand < f and f_cand <= f + 1e-4 * float(grad @ (candidate - x)):
                x_new, f_new, grad_new = candidate, f_cand, g_cand
                break
            step *= 0.5
        if x_new is None:
            # no representable descent left; optimal at floating-point resolution
            return x, f, pg_norm, iteration
        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            rho = 1.0 / sy
            left = np.eye(2) - rho * np.outer(s, y)
            h = left @ h @ left.T + rho * np.outer(s, s)
        x, f, grad = x_new, f_new, grad_new
    pg_norm = float(np.linalg.norm(x - _project_disk(x - grad)))
    raise ConvergenceError(
        f"MLE did not converge in {MAX_ITERATIONS} iterations "
        f"(projected gradient norm {pg_norm:.3e})",
        best=(float(x[0]), float(x[1])),
    )


def moment_initializer(record: MeasurementRecord) -> tuple[float, float]:
    """Method-of-moments starting point from the empirical second moment."""
    return _moment_start(record.second_moment, record.config.source.epsilon)


def _moment_start(s: np.ndarray, eps: float) -> tuple[float, float]:
    g1 = (s[0, 2] + s[1, 3]) / eps
    g2 = (s[0, 3] - s[1, 2]) / eps
    norm = math.hypot(g1, g2)
    if norm > 0.999:
        g1, g2 = g1 * 0.999 / norm, g2 * 0.999 / norm
    return (g1, g2)


def _mle_lockstep(
    cfg: InterferometerConfig, moments: np.ndarray, shots: int
) -> tuple[MleResult, ...]:
    """Maximum likelihood for each record's second moment in ``moments`` (R x 4 x 4).

    Every start of every record runs in lockstep: each round evaluates all
    pending points in one stacked likelihood call and sends the results back.
    Per record, the first start wins a tie. A ConvergenceError is raised for the
    first failing (record, start) in that order, the one a record-by-record
    loop would raise.
    """
    model, eps = cfg.model, cfg.source.epsilon
    owners, runs = [], []
    for i, s in enumerate(moments):
        starts = [np.zeros(2), np.array(_moment_start(s, eps))]
        if np.linalg.norm(starts[1] - starts[0]) < 1e-12:
            starts = starts[:1]
        for x0 in starts:
            owners.append(i)
            runs.append(_projected_bfgs(x0))

    pending = {k: next(run) for k, run in enumerate(runs)}
    finals, failures = {}, {}
    while pending:
        keys = list(pending)
        values, grads = _nll_and_grad(
            model, moments[[owners[k] for k in keys]], np.array([pending[k] for k in keys])
        )
        for k, f, grad in zip(keys, values, grads):
            try:
                pending[k] = runs[k].send((f, grad))
            except StopIteration as done:
                finals[k] = done.value
                del pending[k]
            except ConvergenceError as exc:
                failures[k] = exc
                del pending[k]
    if failures:
        raise failures[min(failures)]

    best = [None] * len(moments)
    for k, i in enumerate(owners):
        if best[i] is None or finals[k][1] < best[i][1]:
            best[i] = finals[k]
    return tuple(
        MleResult(
            g1=float(x[0]),
            g2=float(x[1]),
            log_likelihood=-shots * float(f),
            gradient_norm=pg_norm,
            iterations=iterations,
            on_boundary=math.hypot(x[0], x[1]) >= 1.0 - 1e-9,
        )
        for x, f, pg_norm, iterations in best
    )


def mle(record: MeasurementRecord) -> MleResult:
    """Maximum-likelihood estimate of (g1, g2) over the closed unit disk.

    Projected BFGS with the analytic gradient, multi-started from the origin and
    the method-of-moments point; the better final likelihood wins. The gradient
    tolerance applies to the per-shot mean log-likelihood, which keeps it
    meaningful across record sizes.
    """
    return _mle_lockstep(record.config, record.second_moment[None], record.shots)[0]


def crb_experiment(
    cfg: InterferometerConfig, shots: int, replications: int, seed: int = 0
) -> EstimateResult:
    """Replicated MLE spread versus the Cramer-Rao bound F^-1 / M.

    Each replication samples a fresh record from a spawned child seed and keeps
    its second moment; all replications are then fitted as ``mle`` fits one
    record, in lockstep. The empirical covariance of the estimates across
    replications is compared with the CRB. The efficiency window and the
    minimum-eigenvalue check are reported as flags, not raised as errors
    (finite-sample misses are data).

    The minimum-eigenvalue slack is three times the largest standard error of
    the sample-covariance entries, se(S_ij) = sqrt((S_ii S_jj + S_ij^2)/(R-1)),
    the level at which the Cramer-Rao inequality is statistically testable.
    """
    if replications < MIN_REPLICATIONS:
        raise ValidationError(f"replications must be >= {MIN_REPLICATIONS}")
    if replications > MAX_REPLICATIONS:
        raise ValidationError(f"replications must be <= {MAX_REPLICATIONS}")
    if not 1 <= shots <= MAX_SHOTS:
        raise ValidationError(f"shots must be in [1, {MAX_SHOTS}]")
    children = np.random.SeedSequence(seed).spawn(replications)
    # only the sufficient statistic outlives each record, so memory does not grow with R
    moments = np.stack([sample_records(cfg, shots, child).second_moment for child in children])
    fits = _mle_lockstep(cfg, moments, shots)
    estimates = np.array([fit.g for fit in fits])

    cov_hat = np.cov(estimates.T, ddof=1)
    cov_hat = (cov_hat + cov_hat.T) / 2.0
    crb = np.linalg.inv(fisher_analytic(cfg).entries) / shots
    trace_ratio = float(np.trace(cov_hat) / np.trace(crb))

    se = np.sqrt(
        (np.outer(np.diag(cov_hat), np.diag(cov_hat)) + cov_hat**2) / (replications - 1)
    )
    slack = 3.0 * float(np.max(se))
    min_eig_gap = float(np.linalg.eigvalsh(cov_hat - crb)[0])

    return EstimateResult(
        config=cfg,
        shots=shots,
        replications=replications,
        seed=seed,
        g_hat_mean=(float(estimates[:, 0].mean()), float(estimates[:, 1].mean())),
        covariance_hat=cov_hat,
        crb=crb,
        trace_ratio=trace_ratio,
        efficiency_ok=EFFICIENCY_WINDOW[0] <= trace_ratio <= EFFICIENCY_WINDOW[1],
        min_eig_gap=min_eig_gap,
        min_eig_slack=slack,
        crb_respected=min_eig_gap >= -slack,
        boundary_count=sum(fit.on_boundary for fit in fits),
        fits=fits,
    )
