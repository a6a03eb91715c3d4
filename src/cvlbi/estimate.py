"""End-to-end statistical validation: sampling, likelihood, MLE, and the CRB check.

Homodyne records are drawn from the measured-outcome Gaussian, the mutual
coherence (g1, g2) is estimated by maximum likelihood over the closed unit disk
with the remaining parameters (epsilon, n_bar, theta) treated as known, and the
spread of the estimator across replications is compared against the Cramer-Rao
bound F^-1 / M.

Records are drawn with the config's Cholesky factor of V_r. The likelihood and
its gradient read the config's V_0, D1 and D2 and depend on the data only through
the empirical second-moment matrix, so each optimizer step costs a few 4x4
operations no matter how many shots a record holds, and the CRB experiment keeps
only the second moment of each record, drawn on a thread pool from its own
spawned seed, so no result depends on the thread count. Its replications are
fitted in lockstep by one projected BFGS over arrays, a row per start of each
replication: each round evaluates the pending points of all rows, boundary-polish
points on the unit circle included, in one stacked 4x4 likelihood call, with the
same bits as fitting the records one by one.
Replication seeds are spawned from the master seed with
``numpy.random.SeedSequence``, making multi-replication runs reproducible
across machines. The choice of maximum likelihood is this package's, it is
standard but not imposed by the problem; result records are labeled
accordingly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DRAW_CHUNK, _check_integer, _check_outcomes
from .fisher import fisher_analytic
from .interferometer import InterferometerConfig
from .states import _check_disk

LOG_2PI = math.log(2.0 * math.pi)

GRADIENT_TOL = 1e-8
MAX_ITERATIONS = 500
MIN_REPLICATIONS = 30
#: a record holds 32 bytes per shot, so the largest one takes 320 MB; the outcome
#: buffers of crb_experiment's sampling threads together hold at most as many rows,
#: unless one thread alone needs more
MAX_SHOTS = 10_000_000
#: replications keep 128 bytes of moments plus one fit each; run time grows with them
MAX_REPLICATIONS = 100_000

#: most threads drawing one CRB experiment's records: the gain was measured on two
#: CPUs only, and an affinity mask does not show a container's CPU quota
_MAX_SAMPLING_THREADS = 4

#: asymptotic-efficiency acceptance window on trace(cov_hat) / trace(CRB)
EFFICIENCY_WINDOW = (0.8, 1.5)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """M homodyne shots over (x_A1, p_A2, x_B1, p_B2), held as a read-only copy of the
    outcomes given, plus their provenance."""

    outcomes: np.ndarray
    seed: int
    config: InterferometerConfig

    def __post_init__(self):
        m = _check_outcomes(np.array(self.outcomes, dtype=float))
        m.flags.writeable = False
        object.__setattr__(self, "outcomes", m)

    @classmethod
    def _drawn(cls, outcomes: np.ndarray, seed: int, config) -> "MeasurementRecord":
        """Wrap, uncopied, unchecked and made read-only, a fresh array of outcomes drawn
        from a checked V_r, so finite: a record at MAX_SHOTS then holds one buffer."""
        outcomes.flags.writeable = False
        out = object.__new__(cls)
        out.__dict__.update(outcomes=outcomes, seed=seed, config=config)
        return out

    @property
    def shots(self) -> int:
        return self.outcomes.shape[0]

    @cached_property
    def second_moment(self) -> np.ndarray:
        """Empirical second-moment matrix X^T X / M, the likelihood's sufficient statistic."""
        return _second_moment(self.outcomes)


def _second_moment(outcomes: np.ndarray) -> np.ndarray:
    s = outcomes.T @ outcomes / len(outcomes)
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
    #: why the fit stopped: "converged" (gradient criterion met), "plateau" (no
    #: descent step left at float resolution), "boundary" (stationary on the circle)
    #: or "capped" (still going after MAX_ITERATIONS)
    reason: str

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

    Rows are Cholesky factor times standard normals, drawn DRAW_CHUNK rows at a
    time from a single seeded generator; the record is deterministic per seed,
    and its bits do not depend on the chunk length.
    ``seed`` is an int >= 0 or a ``numpy.random.SeedSequence``; the record's
    ``seed`` then reads -1. Child j of ``SeedSequence(seed).spawn(replications)``
    reproduces the draws of replication j of ``crb_experiment``.
    """
    _check_integer("shots", shots, 1, MAX_SHOTS)
    spawned = isinstance(seed, np.random.SeedSequence)
    if not spawned:
        _check_integer("seed", seed, 0)
    out = _draw_outcomes(cfg.cholesky, seed, np.empty((shots, 4)))
    return MeasurementRecord._drawn(out, -1 if spawned else int(seed), cfg)


def _draw_outcomes(chol: np.ndarray, seed, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (shots x 4) with the outcomes drawn from ``seed`` and return it:
    rows chol @ w for standard normals w, drawn DRAW_CHUNK rows at a time. A lone
    last row joins the chunk before it, as numpy multiplies one row by another
    kernel: a record then has the bits of one product over all its rows, whatever
    the chunk length."""
    rng = np.random.default_rng(seed)
    ends = [*range(DRAW_CHUNK, len(out) - 1, DRAW_CHUNK), len(out)]
    for start, end in zip([0, *ends], ends):
        np.matmul(rng.standard_normal((end - start, 4)), chol.T, out=out[start:end])
    return out


def _sampling_workers(shots: int, replications: int) -> int:
    """Threads that draw a CRB experiment's records: at most one per usable CPU and
    per replication, at most _MAX_SAMPLING_THREADS, and few enough that their
    outcome buffers together hold at most MAX_SHOTS rows (each thread's chunk of
    normals adds at most DRAW_CHUNK + 1 rows, 512 KB)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, replications, _MAX_SAMPLING_THREADS, max(1, MAX_SHOTS // shots))


def _second_moments(chol: np.ndarray, shots: int, seeds) -> np.ndarray:
    """The second moment of each seed's record (len(seeds) x 4 x 4), drawn in parallel.

    A pool of _sampling_workers threads draws the seeds in as many contiguous
    blocks, each block's records into one reused outcome buffer (a new one per
    record raised the peak RSS); numpy's draws and BLAS products release the GIL.
    Row j has the bits of seed j's ``sample_records(...).second_moment``, and the
    lowest failing seed's exception is raised after every thread has ended. No
    public function runs on a worker: the benchmark's span tracer keeps one span
    stack and is not thread-safe.
    """
    # imported here: at the top it would add about 8 ms to every ``import cvlbi``
    from concurrent.futures import ThreadPoolExecutor

    workers = _sampling_workers(shots, len(seeds))

    def draw_block(block: int) -> list:
        lo, hi = len(seeds) * block // workers, len(seeds) * (block + 1) // workers
        out = np.empty((shots, 4))
        return [_second_moment(_draw_outcomes(chol, seed, out)) for seed in seeds[lo:hi]]

    with ThreadPoolExecutor(workers) as pool:
        return np.stack([m for block in pool.map(draw_block, range(workers)) for m in block])


def _nll_and_grad(cfg: InterferometerConfig, s: np.ndarray, g: np.ndarray):
    """Per-shot negative log-likelihood and its gradient in (g1, g2), row by row.

    Row i takes the second moment s[i] (n x 4 x 4) at the coherence g[i] (n x 2):
    nll = (log det V + tr(V^-1 S) + 4 log 2pi) / 2 with V = V_r(g[i]), and the
    gradient uses the same trace algebra as the Fisher score. Returns (values[n],
    grads[n, 2]). The stacked LAPACK and BLAS calls give every row the bits of
    the one-matrix call, so how points are batched never changes a result.
    """
    v = cfg.covariance(g[:, 0, None, None], g[:, 1, None, None])
    chol = np.linalg.cholesky(v)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    v_inv = np.linalg.inv(v)
    values = 0.5 * (logdet + np.trace(v_inv @ s, axis1=1, axis2=2) + 4.0 * LOG_2PI)
    grads = np.empty((len(g), 2))
    for k, dk in enumerate(cfg.d):
        a = v_inv @ dk
        grads[:, k] = 0.5 * (
            np.trace(a, axis1=1, axis2=2) - np.trace(a @ v_inv @ s, axis1=1, axis2=2)
        )
    return values, grads


def log_likelihood(record: MeasurementRecord, g1: float, g2: float) -> float:
    """Total log-likelihood of the record at coherence (g1, g2); |g| <= 1 required."""
    _check_disk(g1, g2)
    values, _ = _nll_and_grad(record.config, record.second_moment[None], np.array([[g1, g2]]))
    return -record.shots * float(values[0])


def log_likelihood_gradient(record: MeasurementRecord, g1: float, g2: float) -> np.ndarray:
    """Gradient of the total log-likelihood in (g1, g2)."""
    _check_disk(g1, g2)
    _, grads = _nll_and_grad(record.config, record.second_moment[None], np.array([[g1, g2]]))
    return -record.shots * grads[0]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of v (n x 2), by ``math.hypot`` (np.hypot rounds differently)."""
    return np.fromiter(map(math.hypot, v[:, 0].tolist(), v[:, 1].tolist()), float, len(v))


def _project_disk(v: np.ndarray) -> np.ndarray:
    """Move each row of v (n x 2) onto the closed unit disk, in place; returns v."""
    norms = _row_norms(v)
    outside = ~(norms <= 1.0)
    v[outside] /= norms[outside, None]
    return v


def _brentq(f, xa: float, xb: float, xtol: float):
    """Root of f in [xa, xb] by Brent's method; f(xa) and f(xb) are nonzero, of opposite sign.

    A step-for-step port of SciPy's ``brentq`` (inverse quadratic or secant
    step when it is short enough, bisection otherwise, relative tolerance
    4 * machine epsilon), so it returns the same root to the last bit; at
    SciPy's 100-iteration cap it returns its last iterate, evaluated, instead.
    A generator over the generator ``f``: it reads each value as ``yield from
    f(x)``, so the points ``f`` yields reach the caller, and returns the root.
    """
    rtol = 4.0 * np.finfo(float).eps
    xpre, xcur = xa, xb
    fpre = yield from f(xpre)
    fcur = yield from f(xcur)
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
    return xcur


def _boundary_polish(x: np.ndarray, f: float, grad: np.ndarray):
    """Slide along the unit circle to a tangentially stationary point.

    Used when the iterate is pinned on the boundary with an inward-pointing
    gradient; the remaining freedom is the angle, where a bracketed root of the
    tangential derivative converges far faster than projected steps. A
    generator: it yields each circle point it needs evaluated, none twice, is
    sent (f, grad) at that point, and returns the new (x, f, grad).
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
    while True:  # the descent side of phi holds a sign change within pi
        other = phi - math.copysign(width, d0)
        if (yield from tangential(other)) * d0 < 0.0:
            break
        if width == math.pi:
            return x, f, grad
        width = min(2.0 * width, math.pi)
    root = yield from _brentq(tangential, min(phi, other), max(phi, other), xtol=1e-15)
    point, f_new, grad_new = cache[root]  # Brent's method returns a point it evaluated
    if f_new <= f:
        return point, f_new, grad_new
    return x, f, grad


def _moment_starts(s: np.ndarray, eps: float) -> np.ndarray:
    """Method-of-moments coherence of each second moment s[i], pulled inside |g| <= 0.999."""
    g = np.column_stack([s[:, 0, 2] + s[:, 1, 3], s[:, 0, 3] - s[:, 1, 2]]) / eps
    norms = _row_norms(g)
    far = norms > 0.999
    g[far] = g[far] * 0.999 / norms[far, None]
    return g


def _mle_lockstep(
    cfg: InterferometerConfig, moments: np.ndarray, shots: int
) -> tuple[MleResult, ...]:
    """Maximum likelihood for each record's second moment in ``moments`` (R x 4 x 4).

    Projected BFGS on the per-shot negative log-likelihood over the closed unit
    disk, from the origin and from the method-of-moments point (one start when
    they coincide). Each start of each record is one row of the state arrays.
    A round evaluates the pending point of every running start, a line-search
    candidate or a circle point of the boundary polish, in one stacked
    likelihood call; Armijo, step halving and the BFGS update then act on masks.
    Every row gets the bits a start fitted on its own would.

    A run ends when the projected-gradient displacement ||x - proj(x - grad)||
    is at most GRADIENT_TOL ("converged"), when no step, halved down to 1e-20
    or until it rounds to x itself, descends ("plateau"), or when it is pinned
    on the circle with an inward gradient and the polish along the circle
    leaves x unchanged ("boundary"); a polish that moves x is one iteration.
    A run still going after MAX_ITERATIONS (read at call time) ends there
    ("capped"); per record the lower final value wins, the first start on a tie.
    """
    max_iterations = MAX_ITERATIONS
    starts = _moment_starts(moments, cfg.source.epsilon)
    second = ~(np.sqrt(np.vecdot(starts, starts)) < 1e-12)
    n_starts = 1 + second
    first = np.cumsum(n_starts) - n_starts
    owner = np.repeat(np.arange(len(moments)), n_starts)
    n = len(owner)
    x = np.zeros((n, 2))
    x[first[second] + 1] = starts[second]
    f, grad = _nll_and_grad(cfg, moments[owner], x)
    h = np.tile(np.eye(2), (n, 1, 1))
    direction, step = np.empty((n, 2)), np.ones(n)
    pg_norm, iterations = np.empty(n), np.zeros(n, dtype=int)
    reason = np.empty(n, dtype=object)
    polish = {}

    def iterate(runs: np.ndarray) -> np.ndarray:
        """Start the next iteration of ``runs``: end them, start a polish, or set
        up a line search; returns the runs that search."""
        if not len(runs):
            return runs
        xr, gr = x[runs], grad[runs]
        pg = xr - _project_disk(xr - gr)
        pg_norm[runs] = np.sqrt(np.vecdot(pg, pg))
        capped = iterations[runs] >= max_iterations
        reason[runs[capped]] = "capped"
        converged = ~capped & (pg_norm[runs] <= GRADIENT_TOL)
        reason[runs[converged]] = "converged"
        pinned = (_row_norms(xr) >= 1.0 - 1e-12) & (np.vecdot(gr, xr) <= 0.0)
        pinned &= ~(capped | converged)
        for k in runs[pinned].tolist():
            run = _boundary_polish(x[k].copy(), f[k], grad[k].copy())
            polish[k] = (run, next(run))
        searching = ~(capped | converged | pinned)
        runs, gr = runs[searching], gr[searching]
        d = np.matvec(-h[runs], gr)
        uphill = np.vecdot(d, gr) >= 0.0
        d[uphill] = -gr[uphill]
        direction[runs], step[runs] = d, 1.0
        return runs

    def propose(runs: np.ndarray):
        """The line-search candidates of ``runs``; returns (runs, candidates)
        without the runs whose step rounds to x itself, which end on the plateau:
        f cannot descend there, nor at any shorter step, which rounds to x too."""
        candidates = x[runs] + step[runs, None] * direction[runs]
        stuck = (candidates == x[runs]).all(axis=1)
        candidates = _project_disk(candidates)
        stuck &= (candidates == x[runs]).all(axis=1)
        reason[runs[stuck]] = "plateau"
        return runs[~stuck], candidates[~stuck]

    search, candidates = propose(iterate(np.arange(n)))
    while len(search) or polish:
        xs, fs, gs = x[search], f[search], grad[search]
        rows, points = search, candidates
        if polish:
            rows = np.concatenate([search, list(polish)])
            points = np.concatenate([candidates, [point for _, point in polish.values()]])
        values, grads = _nll_and_grad(cfg, moments[owner[rows]], points)

        moved = []
        m = len(search)
        for k, value, g in zip(rows[m:].tolist(), values[m:], grads[m:]):
            run, _ = polish.pop(k)
            try:
                polish[k] = (run, run.send((value, g)))
                continue
            except StopIteration as stop:
                x_new, f_new, grad_new = stop.value
            if np.array_equal(x_new, x[k]):
                reason[k] = "boundary"  # tangentially stationary at float resolution
            else:
                x[k], f[k], grad[k] = x_new, f_new, grad_new
                moved.append(k)

        f_cand, g_cand = values[:m], grads[:m]
        # Armijo on the projected displacement; the strict decrease guards
        # against accepting zero-progress steps on the float plateau
        accept = (f_cand < fs) & (f_cand <= fs + 1e-4 * np.vecdot(gs, candidates - xs))
        done = search[accept]
        if len(done):
            s, y = candidates[accept] - xs[accept], g_cand[accept] - gs[accept]
            sy = np.vecdot(s, y)
            curved = sy > 1e-12 * np.sqrt(np.vecdot(s, s)) * np.sqrt(np.vecdot(y, y))
            s, y, rho, update = s[curved], y[curved], 1.0 / sy[curved, None, None], done[curved]
            left = np.eye(2) - rho * (s[:, :, None] * y[:, None, :])
            ss = rho * (s[:, :, None] * s[:, None, :])
            h[update] = left @ h[update] @ left.transpose(0, 2, 1) + ss
            x[done], f[done], grad[done] = candidates[accept], f_cand[accept], g_cand[accept]

        halve = search[~accept]
        step[halve] *= 0.5
        going = step[halve] > 1e-20
        # no representable descent left; optimal at floating-point resolution
        reason[halve[~going]] = "plateau"
        if moved:
            done = np.concatenate([done, moved])
        iterations[done] += 1
        search, candidates = propose(np.concatenate([halve[going], iterate(done)]))

    last = first + second
    best = np.where(f[last] < f[first], last, first)
    columns = (x[best, 0], x[best, 1], -shots * f[best], pg_norm[best], iterations[best])
    return tuple(
        MleResult(g1, g2, log_likelihood, gradient_norm, count, radius >= 1.0 - 1e-9, why)
        for g1, g2, log_likelihood, gradient_norm, count, radius, why in zip(
            *(column.tolist() for column in columns), _row_norms(x[best]).tolist(), reason[best]
        )
    )


def mle(record: MeasurementRecord) -> MleResult:
    """Maximum-likelihood estimate of (g1, g2) over the closed unit disk.

    Projected BFGS with the analytic gradient, multi-started from the origin and
    the method-of-moments point; the better final likelihood wins. The gradient
    tolerance applies to the per-shot mean log-likelihood, which keeps it
    meaningful across record sizes. A fit that reaches MAX_ITERATIONS is
    returned as it stands, with reason "capped".
    """
    return _mle_lockstep(record.config, record.second_moment[None], record.shots)[0]


def crb_experiment(
    cfg: InterferometerConfig, shots: int, replications: int, seed: int = 0
) -> EstimateResult:
    """Replicated MLE spread versus the Cramer-Rao bound F^-1 / M.

    Each replication samples a fresh record from a spawned child seed and keeps
    its second moment, the bits of ``sample_records(...).second_moment``. The
    records share one Cholesky factor and are drawn on a thread pool, whose size
    changes no result. All replications are then fitted as ``mle`` fits one
    record, in lockstep, with the bits of record-by-record fits. The empirical
    covariance of the estimates across replications is compared with the CRB.
    The efficiency window and the minimum-eigenvalue check are reported as
    flags, not raised as errors (finite-sample misses are data).

    The minimum-eigenvalue slack is three times the largest standard error of
    the sample-covariance entries, se(S_ij) = sqrt((S_ii S_jj + S_ij^2)/(R-1)),
    the level at which the Cramer-Rao inequality is statistically testable.
    """
    _check_integer("replications", replications, MIN_REPLICATIONS, MAX_REPLICATIONS)
    _check_integer("shots", shots, 1, MAX_SHOTS)
    _check_integer("seed", seed, 0)
    moments = _second_moments(cfg.cholesky, shots, np.random.SeedSequence(seed).spawn(replications))
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
