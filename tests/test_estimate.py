"""Tests for sampling, likelihood, maximum likelihood, and the CRB experiment."""

import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from oracles import (
    block_basis,
    block_betas,
    block_moments,
    block_nll_and_grad,
    block_statistics,
    block_wishart,
    circle_maximum,
    gaussian_log_pdf,
    linear_estimate,
    linear_estimate_covariance,
)

import cvlbi.estimate as estimate_module
from cvlbi.core import DRAW_CHUNK, NumericalError, ValidationError
from cvlbi.estimate import (
    GRADIENT_TOL,
    LOG_2PI,
    MAX_REPLICATIONS,
    MAX_SHOTS,
    MIN_REPLICATIONS,
    MeasurementRecord,
    _MAX_SAMPLING_THREADS,
    _draw_outcomes,
    _moment_starts,
    _nll_and_grad,
    _sampling_workers,
    _second_moment,
    _second_moments,
    crb_experiment,
    log_likelihood,
    log_likelihood_gradient,
    mle,
    sample_records,
)
from cvlbi.fisher import fisher_monte_carlo, score_vectors
from cvlbi.interferometer import InterferometerConfig, reduced_covariance_closed

CFG = InterferometerConfig.from_values(0.1, 0.0, 0.0, n_bar=1.0, theta=0.0)
CFG_COHERENT = InterferometerConfig.from_values(0.2, 0.3, 0.1, n_bar=1.0, theta=0.0)

#: (config, shots, replications): the benchmark's crb config, the CLI default,
#: a config where most replications end on the boundary of the disk, one whose
#: true coherence lies on the circle, and a squeezed one where some fits end on
#: the float plateau
LOCKSTEP_CASES = {
    "crb": (InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0, theta=0.0), 10_000, 100),
    "cli-default": (CFG, 10_000, 100),
    "boundary": (InterferometerConfig.from_values(0.05, 0.9, 0.3, n_bar=3.0, theta=1.0), 500, 60),
    "circle": (InterferometerConfig.from_values(0.1, 1.0, 0.0, n_bar=1.0, theta=0.0), 2000, 30),
    "squeezed": (InterferometerConfig.from_values(0.3, -0.5, 0.6, n_bar=10.0, theta=2.0), 2000, 40),
}


def one_matrix_nll_and_grad(cfg, s, g):
    """Reference: the likelihood and gradient of one 4x4 matrix, one trace at a time."""
    v = cfg.covariance(float(g[0]), float(g[1]))
    chol = np.linalg.cholesky(v)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    v_inv = np.linalg.inv(v)
    value = 0.5 * (logdet + float(np.trace(v_inv @ s)) + 4.0 * LOG_2PI)
    grad = np.empty(2)
    for k, dk in enumerate((cfg.d[0], cfg.d[1])):
        a = v_inv @ dk
        grad[k] = 0.5 * (float(np.trace(a)) - float(np.trace(a @ v_inv @ s)))
    return value, grad


def drive(run, fun):
    """Run the generator ``run`` to its end, sending ``fun(point)`` for each point
    it yields; return what it returns."""
    try:
        point = next(run)
        while True:
            point = run.send(fun(point))
    except StopIteration as done:
        return done.value


def yielded(x):
    """The generator form of a function: yield x, return the value sent back."""
    return (yield x)


def project_disk(g):
    norm = math.hypot(g[0], g[1])
    if norm <= 1.0:
        return g
    return g / norm


def projected_bfgs(x0):
    """Reference: one start of the MLE's projected BFGS, a generator.

    It yields each point it needs evaluated, is sent (f, grad) there, and
    returns (x, f, pg_norm, iterations, reason); the points of the boundary
    polish are yielded the same way. Stops when the projected-gradient
    displacement ||x - proj(x - grad)|| is at most GRADIENT_TOL, when no halved
    step down to 1e-20 descends, or when the polish of an iterate pinned on the
    circle leaves it unchanged; ends "capped" after MAX_ITERATIONS.
    """
    x = project_disk(np.asarray(x0, dtype=float))
    f, grad = yield x
    h = np.eye(2)
    for iteration in range(estimate_module.MAX_ITERATIONS):
        pg = x - project_disk(x - grad)
        pg_norm = float(np.linalg.norm(pg))
        if pg_norm <= GRADIENT_TOL:
            return x, f, pg_norm, iteration, "converged"
        if math.hypot(x[0], x[1]) >= 1.0 - 1e-12 and float(grad @ x) <= 0.0:
            x_new, f_new, grad_new = yield from estimate_module._boundary_polish(x, f, grad)
            if np.array_equal(x_new, x):
                return x, f, pg_norm, iteration, "boundary"
            x, f, grad = x_new, f_new, grad_new
            continue
        direction = -h @ grad
        if float(direction @ grad) >= 0.0:
            direction = -grad
        step = 1.0
        x_new = f_new = grad_new = None
        while step > 1e-20:
            candidate = project_disk(x + step * direction)
            f_cand, g_cand = yield candidate
            if f_cand < f and f_cand <= f + 1e-4 * float(grad @ (candidate - x)):
                x_new, f_new, grad_new = candidate, f_cand, g_cand
                break
            step *= 0.5
        if x_new is None:
            return x, f, pg_norm, iteration, "plateau"
        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            rho = 1.0 / sy
            left = np.eye(2) - rho * np.outer(s, y)
            h = left @ h @ left.T + rho * np.outer(s, s)
        x, f, grad = x_new, f_new, grad_new
    pg_norm = float(np.linalg.norm(x - project_disk(x - grad)))
    return x, f, pg_norm, estimate_module.MAX_ITERATIONS, "capped"


def moment_start(s, eps):
    """Reference: the method-of-moments start of one second moment."""
    g1 = (s[0, 2] + s[1, 3]) / eps
    g2 = (s[0, 3] - s[1, 2]) / eps
    norm = math.hypot(g1, g2)
    if norm > 0.999:
        g1, g2 = g1 * 0.999 / norm, g2 * 0.999 / norm
    return (g1, g2)


def sequential_mle(record):
    """Reference: mle as a plain loop, each start run to its end in turn on the
    one-matrix evaluator; the better final value wins, the first start on a tie."""
    cfg, s = record.config, record.second_moment
    starts = [np.zeros(2), np.array(moment_start(s, record.config.source.epsilon))]
    if np.linalg.norm(starts[1] - starts[0]) < 1e-12:
        starts = starts[:1]
    best = None
    for x0 in starts:
        run = projected_bfgs(x0)
        final = drive(run, lambda g: one_matrix_nll_and_grad(cfg, s, g))
        if best is None or final[1] < best[1]:
            best = final
    x, f, pg_norm, iterations, reason = best
    on_boundary = math.hypot(x[0], x[1]) >= 1.0 - 1e-9
    return (float(x[0]), float(x[1]), -record.shots * f, pg_norm, iterations, on_boundary, reason)


def fit_fields(fit):
    return (
        fit.g1, fit.g2, fit.log_likelihood, fit.gradient_norm, fit.iterations, fit.on_boundary, fit.reason
    )


def record_by_record(fit, cfg, shots, replications, seed):
    """``fit`` on each replication's record in turn, as crb_experiment spawns them."""
    children = np.random.SeedSequence(seed).spawn(replications)
    return [fit(sample_records(cfg, shots, child)) for child in children]


class TestSampling:
    def test_empirical_covariance_matches_target(self):
        n = 1_000_000
        record = sample_records(CFG_COHERENT, n, seed=5)
        v = reduced_covariance_closed(CFG_COHERENT).entries
        sample_cov = record.outcomes.T @ record.outcomes / n
        se = np.sqrt((np.outer(np.diag(v), np.diag(v)) + v**2) / n)
        assert np.all(np.abs(sample_cov - v) <= 5.0 * se)

    def test_empirical_mean_near_zero(self):
        n = 1_000_000
        record = sample_records(CFG_COHERENT, n, seed=6)
        v = reduced_covariance_closed(CFG_COHERENT).entries
        se = np.sqrt(np.diag(v) / n)
        assert np.all(np.abs(record.outcomes.mean(axis=0)) <= 5.0 * se)

    def test_deterministic_per_seed(self):
        a = sample_records(CFG, 1000, seed=9)
        b = sample_records(CFG, 1000, seed=9)
        assert np.array_equal(a.outcomes, b.outcomes)

    @pytest.mark.parametrize(
        "shots, count", [(1000, 5), (3 * DRAW_CHUNK + 17, 2), (DRAW_CHUNK + 1, 3)]
    )
    def test_fused_moments_equal_sample_records_bitwise(self, shots, count):
        # 3 chunks plus a short one, and a lone last row: the multi-chunk fill of both
        # paths has the bits of one product over all rows, whatever DRAW_CHUNK is
        children = np.random.SeedSequence(4).spawn(count)
        chol = np.linalg.cholesky(CFG_COHERENT.covariance(0.3, 0.1))
        # one outcome buffer for every child, as one block of crb_experiment's draws
        out = np.empty((shots, 4))
        for child in children:
            moment = _second_moment(_draw_outcomes(chol, child, out))
            record = sample_records(CFG_COHERENT, shots, child)
            assert np.array_equal(moment, record.second_moment)
            normals = np.random.default_rng(child).standard_normal((shots, 4))
            assert np.array_equal(record.outcomes, normals @ chol.T)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError, match="shots"):
            sample_records(CFG, 0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            sample_records(CFG, 10, seed=-1)

    def test_absurd_shot_count_rejected_before_sampling(self):
        with pytest.raises(ValidationError, match=rf"shots must be in \[1, {MAX_SHOTS}\]"):
            sample_records(CFG, 10**12, seed=0)

    def test_empty_record_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            MeasurementRecord(outcomes=np.empty((0, 4)), seed=0, config=CFG)

    def test_non_finite_outcomes_rejected(self):
        bad = np.zeros((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            MeasurementRecord(outcomes=bad, seed=0, config=CFG)

    def test_record_keeps_its_own_copy_of_the_outcomes(self):
        base = sample_records(CFG, 10, seed=3).outcomes.copy()
        whole, part = MeasurementRecord(base, 0, CFG), MeasurementRecord(base[:5], 0, CFG)
        moment = part.second_moment
        base[0] = 100.0  # the caller's array stays writeable
        for record in (whole, part):
            assert not record.outcomes.flags.writeable
            assert not np.shares_memory(record.outcomes, base)
        assert np.array_equal(_second_moment(part.outcomes), moment)

    def test_a_drawn_record_holds_one_buffer(self):
        # 200k shots are 6.4 MB; the normals of one chunk add 512 KB, a copy another 6.4 MB
        tracemalloc.start()
        try:
            record = sample_records(CFG, 200_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.outcomes.nbytes <= peak < 2 * record.outcomes.nbytes


def from_blocks(theta: float, blocks: np.ndarray) -> np.ndarray:
    """The second moments Q diag(S_+, S_-) Q^T of block pairs (n x 2 x 2 x 2): n x 4 x 4."""
    q = block_basis(theta)
    diagonal = np.zeros((len(blocks), 4, 4))
    diagonal[:, :2, :2], diagonal[:, 2:, 2:] = blocks[:, 0], blocks[:, 1]
    return q @ diagonal @ q.T


def block_statistic_columns(blocks: np.ndarray) -> np.ndarray:
    """The six block statistics (T_+, T_-, u_+1, u_+2, u_-1, u_-2) of each block pair: n x 6."""
    t, u = block_statistics(blocks)
    return np.column_stack([t, u.reshape(len(u), 4)])


class TestBlockWishart:
    def test_statistics_match_sample_records(self):
        # measured: means at most 2.4 and variances at most 1.7 standard errors apart,
        # standard deviations within 2.2%
        cfg = InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0, theta=0.7)
        moments = np.stack([sample_records(cfg, 100, seed).second_moment for seed in range(3000)])
        records = block_statistic_columns(block_moments(cfg.resource.theta, moments))
        drawn = block_statistic_columns(block_wishart(cfg, 100, 30_000, np.random.default_rng(8)))
        squares = [(x - x.mean(axis=0)) ** 2 for x in (records, drawn)]
        # a variance is the mean of the squared deviations, with that mean's standard error
        for a, b in [(records, drawn), squares]:
            se = np.hypot(a.std(axis=0) / math.sqrt(len(a)), b.std(axis=0) / math.sqrt(len(b)))
            assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 3.0 * se)

    def test_blocks_are_symmetric_positive_definite_from_two_shots(self):
        blocks = block_wishart(CFG_COHERENT, 2, 100, np.random.default_rng(9))
        assert np.array_equal(blocks, blocks.swapaxes(-1, -2))
        assert np.linalg.eigvalsh(blocks).min() > 0.0


#: (eps 0.1, n_bar 1) and the far-squeezed (eps 0.5, n_bar 1e3), at coherences off the axes
LINEAR_CASES = [
    InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0, theta=0.7),
    InterferometerConfig.from_values(0.5, -0.4, 0.5, n_bar=1e3, theta=2.0),
]


class TestLinearEstimator:
    """The score step from g = 0: unbiased, with an exact covariance, at any shot count."""

    @pytest.mark.parametrize("cfg", LINEAR_CASES, ids=["weak", "squeezed"])
    def test_mean_and_covariance_on_sampled_records(self, cfg):
        replications, shots = 3000, 100
        g = np.array([cfg.source.g1, cfg.source.g2])
        moments = np.stack([
            sample_records(cfg, shots, seed).second_moment for seed in range(replications)
        ])
        estimates = linear_estimate(cfg, moments)
        exact = linear_estimate_covariance(cfg, g, shots)
        mean_se = np.sqrt(np.diag(exact) / replications)
        assert np.all(np.abs(estimates.mean(axis=0) - g) <= 3.0 * mean_se)
        # each sample (co)variance within 4 of its standard errors, the spread of the
        # deviation products over sqrt(R): about 0.026 of a variance here
        deviations = estimates - estimates.mean(axis=0)
        products = deviations[:, [0, 0, 1]] * deviations[:, [0, 1, 1]]
        sample = products.sum(axis=0) / (replications - 1)
        se = products.std(axis=0) / math.sqrt(replications)
        assert np.all(np.abs(sample - exact[[0, 0, 1], [0, 1, 1]]) <= 4.0 * se)

    @pytest.mark.parametrize("index, eps", enumerate([1e-2, 1e-4, 1e-6, 1e-8]))
    def test_mean_and_covariance_on_block_draws(self, index, eps):
        # M = 100 / eps^2 shots, up to 1e18, where no explicit record can be drawn;
        # measured: means within 1.6 and (co)variances within 1.6 standard errors,
        # variance ratios 0.92 to 1.11
        replications, shots = 400, round(100.0 / eps**2)
        cfg = InterferometerConfig.from_values(eps, 0.3, 0.2, n_bar=1.0, theta=0.7)
        g = np.array([cfg.source.g1, cfg.source.g2])
        blocks = block_wishart(cfg, shots, replications, np.random.default_rng(index))
        estimates = linear_estimate(cfg, from_blocks(cfg.resource.theta, blocks))
        exact = linear_estimate_covariance(cfg, g, shots)
        mean_se = np.sqrt(np.diag(exact) / replications)
        assert np.all(np.abs(estimates.mean(axis=0) - g) <= 3.0 * mean_se)
        # each sample (co)variance within 4 of its standard errors, as on explicit records
        deviations = estimates - estimates.mean(axis=0)
        products = deviations[:, [0, 0, 1]] * deviations[:, [0, 1, 1]]
        sample = products.sum(axis=0) / (replications - 1)
        se = products.std(axis=0) / math.sqrt(replications)
        assert np.all(np.abs(sample - exact[[0, 0, 1], [0, 1, 1]]) <= 4.0 * se)

    @pytest.mark.parametrize("cfg", LINEAR_CASES, ids=["weak", "squeezed"])
    def test_is_the_block_moment_estimate_weighted_by_inverse_beta_squared(self, cfg):
        # in the blocks S_s of Q^T S Q: g_lin = sum_s u_s / beta_s^2 / (2 gamma sum_s 1 / beta_s^2),
        # with u_s,k = tr(tau_k S_s)
        moments = np.stack([sample_records(cfg, 50, seed).second_moment for seed in range(5)])
        _, u = block_statistics(block_moments(cfg.resource.theta, moments))
        weights = [beta**-2 for beta in block_betas(cfg.source.epsilon, cfg.resource.n_bar)]
        weighted = sum(w * u[:, s] for s, w in enumerate(weights))
        expected = weighted / (cfg.source.epsilon * sum(weights))
        np.testing.assert_allclose(linear_estimate(cfg, moments), expected, rtol=0, atol=1e-12)


class TestLogLikelihood:
    def test_matches_summed_pointwise_density(self):
        record = sample_records(CFG_COHERENT, 200, seed=12)
        v = reduced_covariance_closed(CFG_COHERENT)
        direct = float(np.sum(gaussian_log_pdf(v, record.outcomes)))
        fast = log_likelihood(record, 0.3, 0.1)
        assert math.isclose(fast, direct, rel_tol=1e-12)

    def test_consistency_prefers_truth(self):
        # with enough shots the likelihood at truth beats a displaced coherence
        wins = 0
        for i in range(100):
            record = sample_records(CFG_COHERENT, 20_000, seed=1000 + i)
            wins += log_likelihood(record, 0.3, 0.1) > log_likelihood(record, 0.8, 0.1)
        assert wins >= 95

    def test_out_of_disk_rejected(self):
        record = sample_records(CFG, 10, seed=0)
        with pytest.raises(ValidationError, match=r"\|g\|"):
            log_likelihood(record, 0.9, 0.9)

    @pytest.mark.parametrize(
        "g", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)]
    )
    @pytest.mark.parametrize("fn", [log_likelihood, log_likelihood_gradient])
    def test_non_finite_coherence_rejected(self, fn, g):
        record = sample_records(CFG, 10, seed=0)
        with pytest.raises(ValidationError, match="finite"):
            fn(record, *g)

    def test_gradient_vanishes_at_maximizer(self):
        record = sample_records(CFG_COHERENT, 50_000, seed=21)
        result = mle(record)
        grad = log_likelihood_gradient(record, result.g1, result.g2)
        # per-shot mean gradient at the interior optimum
        assert np.linalg.norm(grad) / record.shots <= 1e-8
        assert not result.on_boundary


class TestStackedEvaluator:
    def test_rows_equal_the_one_matrix_reference_bitwise(self):
        rng = np.random.default_rng(3)
        cfg = CFG_COHERENT
        moments = np.stack([sample_records(CFG_COHERENT, 50, seed=i).second_moment for i in range(40)])
        radius = np.sqrt(rng.uniform(0.0, 1.0, 40))
        phase = rng.uniform(0.0, 2.0 * math.pi, 40)
        g = np.column_stack([radius * np.cos(phase), radius * np.sin(phase)])
        g[0] = (1.0, 0.0)  # on the circle
        values, grads = _nll_and_grad(cfg, moments, g)
        for i in range(40):
            value, grad = one_matrix_nll_and_grad(cfg, moments[i], g[i])
            assert values[i] == value
            assert np.array_equal(grads[i], grad)


class TestBlockLikelihood:
    """The per-shot likelihood from the block statistics of a second moment."""

    def draws(self, count: int, log_eps_min: float):
        """(cfg, second moment) pairs: eps log-uniform in [10^log_eps_min, 1], n_bar
        log-uniform in [1e-3, 1e3], any g and theta, records of 1 to 1,000 shots."""
        rng = np.random.default_rng(29)
        for seed in range(count):
            eps, n_bar = 10.0 ** rng.uniform(log_eps_min, 0.0), 10.0 ** rng.uniform(-3.0, 3.0)
            mag, phase = math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi)
            cfg = InterferometerConfig.from_values(
                eps, mag * math.cos(phase), mag * math.sin(phase),
                n_bar=n_bar, theta=rng.uniform(0.0, 2.0 * math.pi),
            )
            shots = int(10.0 ** rng.uniform(0.0, 3.0))
            yield cfg, sample_records(cfg, shots, seed).second_moment

    def test_matches_the_stacked_evaluator(self):
        # measured: values within 4.0e-16 max(1, n_bar) relative, gradients within
        # 4.9e-15 gamma max(1, n_bar); the LAPACK route loses digits as n_bar grows
        rng = np.random.default_rng(30)
        for cfg, s in self.draws(400, -6.0):
            radius = np.sqrt(rng.uniform(size=8))
            radius[:2] = 1.0  # a quarter of the points on the circle
            phase = rng.uniform(0.0, 2.0 * math.pi, 8)
            g = np.column_stack([radius * np.cos(phase), radius * np.sin(phase)])
            moments = np.repeat(s[None], len(g), axis=0)
            values, grads = _nll_and_grad(cfg, moments, g)
            block_values, block_grads = block_nll_and_grad(cfg, moments, g)
            scale = max(1.0, cfg.resource.n_bar)
            assert np.all(np.abs(block_values - values) <= 1e-15 * scale * np.abs(values))
            gamma = cfg.source.epsilon / 2.0
            assert np.all(np.abs(block_grads - grads) <= 5e-14 * gamma * scale)

    def test_circle_maximum_is_the_block_direction(self):
        # on |g| = 1, Delta_s = beta_s^2 - gamma^2 and the likelihood peaks at w / |w|,
        # w = sum_s u_s / Delta_s; measured within 3.1e-10 rad. ``circle_maximum`` takes
        # differences of inverses of V_r, which lose digits as n_bar / eps grows, so eps
        # stays at 1e-3 or above here
        for cfg, s in self.draws(500, -3.0):
            gamma = cfg.source.epsilon / 2.0
            _, u = block_statistics(block_moments(cfg.resource.theta, s[None]))
            betas = block_betas(cfg.source.epsilon, cfg.resource.n_bar)
            w = sum(u[0, k] / (beta**2 - gamma**2) for k, beta in enumerate(betas))
            assert circle_distance(w, circle_maximum(cfg, s)) <= 1e-8


class TestMle:
    def test_large_record_consistency(self):
        cfg = InterferometerConfig.from_values(0.2, 0.3, 0.1, n_bar=5.0, theta=0.0)
        record = sample_records(cfg, 10_000_000, seed=11)
        result = mle(record)
        assert math.hypot(result.g1 - 0.3, result.g2 - 0.1) <= 0.01
        assert result.gradient_norm <= 1e-8

    def test_error_shrinks_as_inverse_root_shots(self):
        shots_grid = [1_000, 10_000, 100_000]
        mean_square = []
        for shots in shots_grid:
            values = []
            for rep in range(40):
                record = sample_records(CFG, shots, seed=50_000 + 97 * shots + rep)
                result = mle(record)
                values.append(result.g1**2 + result.g2**2)
            mean_square.append(np.mean(values))
        slope = np.polyfit(np.log(shots_grid), np.log(mean_square), 1)[0]
        assert abs(slope - (-1.0)) <= 0.2

    def test_boundary_truth_stays_on_disk(self):
        cfg = InterferometerConfig.from_values(0.1, 1.0, 0.0, n_bar=1.0)
        result = mle(sample_records(cfg, 2000, seed=3))
        assert math.hypot(result.g1, result.g2) <= 1.0 + 1e-12
        assert result.on_boundary

    def test_single_shot_record_runs(self):
        result = mle(sample_records(CFG, 1, seed=4))
        assert math.hypot(result.g1, result.g2) <= 1.0 + 1e-12

    def test_moment_initializer_near_truth_for_large_records(self):
        record = sample_records(CFG_COHERENT, 500_000, seed=31)
        ((g1, g2),) = _moment_starts(record.second_moment[None], CFG_COHERENT.source.epsilon)
        assert math.hypot(g1 - 0.3, g2 - 0.1) <= 0.05

    def test_exhausted_iteration_budget_carries_best_iterate(self, monkeypatch):
        # a capped fit is returned as it stands, at the iterate the cap left it on
        monkeypatch.setattr(estimate_module, "MAX_ITERATIONS", 1)
        result = mle(sample_records(CFG_COHERENT, 5000, seed=13))
        assert (result.reason, result.iterations) == ("capped", 1)
        assert math.hypot(result.g1, result.g2) <= 1.0 + 1e-12


@pytest.mark.parametrize("shots, seed", [(2, 3), (5, 35), (5, 40), (5, 42)])
def test_tiny_records_at_the_cli_defaults_finish(monkeypatch, shots, seed):
    # in each of these runs one start of one replication hits MAX_ITERATIONS, and it
    # loses to the other start: no reported fit is capped, and a lifted cap moves none
    fits = crb_experiment(CFG, shots, 30, seed).fits
    assert all(fit.reason != "capped" for fit in fits)
    monkeypatch.setattr(estimate_module, "MAX_ITERATIONS", 2000)
    for fit, lifted in zip(fits, crb_experiment(CFG, shots, 30, seed).fits):
        assert math.hypot(fit.g1 - lifted.g1, fit.g2 - lifted.g2) <= 1e-12
        assert fit.log_likelihood == pytest.approx(lifted.log_likelihood, rel=1e-12, abs=0.0)


class TestBoundaryRootFinder:
    def test_matches_scipy_brentq_bitwise(self):
        optimize = pytest.importorskip("scipy.optimize")
        from cvlbi.estimate import _brentq

        rng = np.random.default_rng(77)
        checked = 0
        while checked < 500:
            c = rng.standard_normal(4)
            fns = (
                lambda x: math.sin(c[0] * x + c[1]) + 0.5 * c[2],
                lambda x: c[0] * x**3 + c[1] * x**2 + c[2] * x + c[3],
                lambda x: math.atan(10.0 * c[0] * (x - c[1])) + 1e-3 * c[2],
            )
            f = fns[checked % 3]
            a, b = sorted(rng.uniform(-4.0, 4.0, size=2))
            if f(a) * f(b) >= 0.0:
                continue
            root = drive(_brentq(yielded, a, b, xtol=1e-15), f)
            assert root == optimize.brentq(f, a, b, xtol=1e-15)
            checked += 1

    def test_returns_an_evaluated_point_at_its_cap(self):
        # with xtol 0 a sign step on [-1e300, 1e300] takes some 2,000 bisections to
        # close, far more than the 100 iterations the root finder is allowed
        from cvlbi.estimate import _brentq

        points = []

        def step(x):
            points.append(x)
            return 1.0 if x > 0.0 else -1.0

        root = drive(_brentq(yielded, -1e300, 1e300, xtol=0.0), step)
        assert len(points) == 102
        assert root == points[-1]


def circle_distance(g, h):
    """Angle in radians between the directions of g and h."""
    return abs(math.atan2(g[0] * h[1] - g[1] * h[0], g[0] * h[0] + g[1] * h[1]))


class TestBoundaryPolish:
    def test_lands_on_the_circle_maximum(self):
        # one-shot moments, whose likelihood often peaks outside the disk; every fourth
        # start lies within 2.1 rad of g*, the others 2.1-3.1 rad from it, beyond the
        # widest bracket that doubling from 1e-3 reaches below pi
        rng = np.random.default_rng(23)
        landed = {"near": 0, "far": 0}
        for draw in range(800):
            eps, n_bar = 10.0 ** rng.uniform(-3.0, 0.0), 10.0 ** rng.uniform(-3.0, 3.0)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            cfg = InterferometerConfig.from_values(eps, 0.0, 0.0, n_bar=n_bar, theta=theta)
            x = np.linalg.cholesky(cfg.v0) @ rng.standard_normal(4)
            s = np.outer(x, x)
            target = circle_maximum(cfg, s)
            far = draw % 4 != 0
            offset = rng.uniform(2.1, 3.1) if far else rng.uniform(0.0, 2.1)
            phi = math.atan2(target[1], target[0]) + rng.choice((-1.0, 1.0)) * offset
            start = np.array([math.cos(phi), math.sin(phi)])
            f, grad = one_matrix_nll_and_grad(cfg, s, start)
            if grad @ start > 0.0:
                continue  # not pinned: the MLE takes a projected step instead
            polish = estimate_module._boundary_polish(start, f, grad)
            point, _, _ = drive(polish, lambda g: one_matrix_nll_and_grad(cfg, s, g))
            assert circle_distance(point, target) <= 1e-8
            landed["far" if far else "near"] += 1
        assert landed["near"] >= 100 and landed["far"] >= 15

    def test_fit_beyond_the_doubled_brackets_reaches_the_circle_maximum(self):
        # this fit is pinned at (0.0170, -0.99986), 2.93 rad from the circle's maximum:
        # beyond 2.048 rad, the widest bracket that doubling from 1e-3 reaches below pi
        cfg = InterferometerConfig.from_values(
            0.01366620997099527, -0.2590284478104862, 0.03232744163398993,
            n_bar=52.446189775552476, theta=4.299153919660139,
        )
        fit = crb_experiment(cfg, shots=1, replications=30, seed=45).fits[2]
        child = np.random.SeedSequence(45).spawn(30)[2]
        target = circle_maximum(cfg, sample_records(cfg, 1, child).second_moment)
        assert fit.reason == "converged" and fit.on_boundary
        assert circle_distance(fit.g, target) <= 1e-9
        assert fit.log_likelihood > -8.054233393108388


class TestCrbExperiment:
    def test_efficiency_window(self):
        result = crb_experiment(CFG, shots=10_000, replications=100, seed=0)
        assert 0.8 <= result.trace_ratio <= 1.5
        assert result.efficiency_ok

    def test_crb_inequality_up_to_statistical_slack(self):
        result = crb_experiment(CFG, shots=10_000, replications=100, seed=0)
        assert result.min_eig_gap >= -result.min_eig_slack
        assert result.crb_respected

    def test_crb_trace_halves_when_shots_double(self):
        a = crb_experiment(CFG, shots=2000, replications=30, seed=1)
        b = crb_experiment(CFG, shots=4000, replications=30, seed=1)
        assert np.array_equal(a.crb * 0.5, b.crb)

    def test_empirical_trace_scales_inversely_with_shots(self):
        small = crb_experiment(CFG, shots=1000, replications=100, seed=101)
        large = crb_experiment(CFG, shots=10_000, replications=100, seed=202)
        ratio = np.trace(small.covariance_hat) / np.trace(large.covariance_hat)
        assert 8.0 <= ratio <= 12.0

    @pytest.mark.parametrize(
        "shots, replications, message",
        [
            (10**12, 100, rf"shots must be in \[1, {MAX_SHOTS}\]"),
            (100, 10**12, rf"replications must be in \[{MIN_REPLICATIONS}, {MAX_REPLICATIONS}\]"),
        ],
    )
    def test_absurd_sizes_rejected_before_sampling(self, shots, replications, message):
        with pytest.raises(ValidationError, match=message):
            crb_experiment(CFG, shots=shots, replications=replications, seed=0)

    def test_too_few_replications_rejected(self):
        with pytest.raises(ValidationError, match="replications"):
            crb_experiment(CFG, shots=100, replications=10, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="^seed must be >= 0$"):
            crb_experiment(CFG, shots=100, replications=30, seed=-1)

    def test_deterministic_per_master_seed(self):
        a = crb_experiment(CFG, shots=500, replications=30, seed=7)
        b = crb_experiment(CFG, shots=500, replications=30, seed=7)
        assert a.trace_ratio == b.trace_ratio
        assert np.array_equal(a.covariance_hat, b.covariance_hat)

    def test_different_master_seeds_differ(self):
        a = crb_experiment(CFG, shots=500, replications=30, seed=7)
        b = crb_experiment(CFG, shots=500, replications=30, seed=8)
        assert not np.array_equal(a.covariance_hat, b.covariance_hat)

    def test_json_record_fields(self):
        result = crb_experiment(CFG, shots=500, replications=30, seed=7)
        payload = result.to_json_dict()
        for key in (
            "config",
            "shots",
            "replications",
            "g_hat_mean",
            "cov_hat",
            "crb",
            "trace_ratio",
            "seed",
        ):
            assert key in payload
        assert payload["estimator"] == "mle"


@pytest.mark.parametrize(
    "function,args",
    [
        (crb_experiment, (CFG, 100.5, 30)),
        (crb_experiment, (CFG, 100, 30.5)),
        (crb_experiment, (CFG, 100, 30, 1.5)),
        (sample_records, (CFG, 10.5, 0)),
        (sample_records, (CFG, 100, 1.5)),
        (fisher_monte_carlo, (CFG, 1000.5)),
        (fisher_monte_carlo, (CFG, 1000, 1.5)),
        (sample_records, (CFG, True, 0)),
        (crb_experiment, (CFG, True, 30)),
        (crb_experiment, (CFG, 100, 30, True)),
        (fisher_monte_carlo, (CFG, 1000, True)),
    ],
    ids=[
        "crb-shots", "crb-replications", "crb-seed", "sample-shots", "sample-seed",
        "mc-samples", "mc-seed", "sample-shots-bool", "crb-shots-bool", "crb-seed-bool",
        "mc-seed-bool",
    ],
)
def test_non_integer_size_or_seed_rejected(function, args):
    (bad,) = [a for a in args[1:] if type(a) is not int]
    with pytest.raises(ValidationError, match=rf"^\w+ must be an integer, got {bad!r}$"):
        function(*args)


class TestLockstepFits:
    @pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
    def test_fits_equal_record_by_record_mle_bitwise(self, case):
        cfg, shots, replications = LOCKSTEP_CASES[case]
        result = crb_experiment(cfg, shots, replications, seed=0)
        fits = [fit_fields(f) for f in result.fits]
        assert fits == [fit_fields(f) for f in record_by_record(mle, cfg, shots, replications, 0)]
        assert fits == record_by_record(sequential_mle, cfg, shots, replications, 0)
        assert result.boundary_count == sum(fit[5] for fit in fits)
        if case == "boundary":
            assert result.boundary_count > replications // 2

    def test_every_evaluation_is_a_lockstep_round(self, monkeypatch):
        # the pending set only shrinks, so a call with more rows than the one
        # before it is a point evaluated outside the rounds
        rows = []

        def counted(cfg, s, g):
            rows.append(len(g))
            return _nll_and_grad(cfg, s, g)

        monkeypatch.setattr(estimate_module, "_nll_and_grad", counted)
        for case in ("boundary", "circle"):
            rows.clear()
            cfg, shots, replications = LOCKSTEP_CASES[case]
            result = crb_experiment(cfg, shots, replications, seed=0)
            assert result.boundary_count > replications // 2
            assert rows[0] >= replications
            assert all(0 < later <= earlier for earlier, later in zip(rows, rows[1:]))

    def test_reasons_agree_with_the_diagnostics(self):
        reasons = set()
        for cfg, shots, replications in LOCKSTEP_CASES.values():
            for fit in crb_experiment(cfg, shots, replications, seed=0).fits:
                reasons.add(fit.reason)
                assert (fit.gradient_norm <= GRADIENT_TOL) == (fit.reason == "converged")
        assert reasons == {"converged", "plateau"}

    def test_polish_that_stays_put_ends_on_the_boundary(self, monkeypatch):
        def stationary(x, f, grad):
            yield x
            return x, f, grad

        monkeypatch.setattr(estimate_module, "_boundary_polish", stationary)
        cfg, shots, replications = LOCKSTEP_CASES["boundary"]
        result = crb_experiment(cfg, shots, replications, seed=0)
        fits = [fit_fields(f) for f in result.fits]
        assert fits == record_by_record(sequential_mle, cfg, shots, replications, 0)
        stopped = [f for f in result.fits if f.reason == "boundary"]
        assert stopped and all(f.on_boundary and f.gradient_norm > GRADIENT_TOL for f in stopped)

    # a capped start ends as a plateau does, in lockstep and in the plain loops alike;
    # at caps 3 and 13 most cases report capped fits beside finished ones
    @pytest.mark.parametrize("max_iterations", [1, 3, 13])
    @pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
    def test_convergence_error_is_the_record_by_record_loops(self, monkeypatch, case, max_iterations):
        cfg, shots, replications = LOCKSTEP_CASES[case]
        monkeypatch.setattr(estimate_module, "MAX_ITERATIONS", max_iterations)
        result = crb_experiment(cfg, shots, replications, seed=0)
        fits = [fit_fields(f) for f in result.fits]
        assert fits == [fit_fields(f) for f in record_by_record(mle, cfg, shots, replications, 0)]
        assert fits == record_by_record(sequential_mle, cfg, shots, replications, 0)
        if max_iterations == 1:
            assert any(f.reason == "capped" for f in result.fits)

    def test_peak_memory_does_not_hold_every_record(self):
        # one 10k-shot record is 320 KB; keeping all 100 would take 32 MB
        tracemalloc.start()
        try:
            crb_experiment(CFG, shots=10_000, replications=100, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def use_workers(monkeypatch, count):
    monkeypatch.setattr(estimate_module, "_sampling_workers", lambda shots, replications: count)


def record_threads(monkeypatch) -> list:
    """Make ``threading.Thread`` record each thread it constructs; returns the record."""
    made = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(threading, "Thread", Recorded)
    return made


class TestParallelSampling:
    @pytest.mark.parametrize(
        "shots, cpus, replications, expected",
        [
            (MAX_SHOTS, 64, 100, 1),
            (MAX_SHOTS // 2 + 1, 64, 100, 1),
            (MAX_SHOTS // 2, 64, 100, 2),
            (MAX_SHOTS // 4 + 1, 64, 100, 3),
            (MAX_SHOTS // 4, 64, 100, 4),
            (10_000, 1, 100, 1),
            (10_000, 2, 100, 2),
            (10_000, 64, 100, _MAX_SAMPLING_THREADS),
            (10_000, 64, 3, 3),
        ],
    )
    def test_worker_count(self, monkeypatch, shots, cpus, replications, expected):
        use_cpus(monkeypatch, cpus)
        assert _sampling_workers(shots, replications) == expected

    @pytest.mark.parametrize("cpu_count, expected", [(None, 1), (3, 3)])
    def test_worker_count_without_an_affinity_mask(self, monkeypatch, cpu_count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert _sampling_workers(10_000, 100) == expected

    def test_one_cpu_draws_on_one_thread(self, monkeypatch):
        use_cpus(monkeypatch, 1)
        made = record_threads(monkeypatch)
        crb_experiment(CFG, shots=500, replications=30, seed=0)
        assert len(made) == 1 and not made[0].is_alive()

    def test_bad_config_fails_before_any_thread(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        made = record_threads(monkeypatch)
        cfg = InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1e13, theta=0.0)
        message = r"measured covariance is numerically singular \(condition number 3\.790e\+13\)"
        with pytest.raises(NumericalError, match=message):
            crb_experiment(cfg, shots=500, replications=30, seed=0)
        assert made == []

    @pytest.mark.parametrize("replications", [30, 31, 101])
    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_moments_equal_a_serial_loop_bitwise(self, monkeypatch, workers, replications):
        # more threads than CPUs, switching every microsecond: a lost or misplaced
        # row would show as a moment that differs from its seed's record
        use_workers(monkeypatch, workers)
        made = record_threads(monkeypatch)
        # the first `workers` draws wait for each other: no block ends, and frees its
        # thread, before the pool has started all `workers` of its threads
        draw, drawn = _draw_outcomes, itertools.count()
        barrier = threading.Barrier(workers, timeout=30)

        def draw_together(chol, seed, out):
            if next(drawn) < workers:
                barrier.wait()
            return draw(chol, seed, out)

        monkeypatch.setattr(estimate_module, "_draw_outcomes", draw_together)
        chol = np.linalg.cholesky(CFG_COHERENT.covariance(0.3, 0.1))
        children = np.random.SeedSequence(11).spawn(replications)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            moments = _second_moments(chol, 1000, children)
        finally:
            sys.setswitchinterval(interval)
        assert len(made) == workers and not any(t.is_alive() for t in made)
        expected = [sample_records(CFG_COHERENT, 1000, child).second_moment for child in children]
        assert moments.shape == (replications, 4, 4)
        assert np.array_equal(moments, np.stack(expected))

    @pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch, case):
        cfg, shots, replications = LOCKSTEP_CASES[case]
        results = []
        for workers in (1, 2):
            use_workers(monkeypatch, workers)
            results.append(crb_experiment(cfg, shots, replications, seed=0))
        one, two = results
        assert [fit_fields(f) for f in one.fits] == [fit_fields(f) for f in two.fits]
        assert one.to_json_dict() == two.to_json_dict()

    def test_error_of_the_lowest_failing_seed_reaches_the_caller(self, monkeypatch):
        # seeds 4 and 20 both fail, seed 4 after seed 20 has; seed 4's error is raised
        later = threading.Event()

        def failing(chol, seed, out):
            replication = seed.spawn_key[-1]
            if replication == 20:
                later.set()
                raise RuntimeError("seed 20")
            if replication == 4:
                later.wait(timeout=30)
                raise RuntimeError("seed 4")
            return _draw_outcomes(chol, seed, out)

        use_workers(monkeypatch, 3)
        monkeypatch.setattr(estimate_module, "_draw_outcomes", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^seed 4$"):
            crb_experiment(CFG, shots=500, replications=30, seed=0)
        assert later.is_set()
        assert threading.active_count() == before

    def test_import_leaves_the_thread_pool_unloaded(self):
        # concurrent.futures is imported by the first CRB experiment, not by the package
        code = "import sys, cvlbi; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestScoreStatistics:
    def test_sampled_score_mean_vanishes(self):
        shots = 100_000
        record = sample_records(CFG_COHERENT, shots, seed=41)
        scores = score_vectors(CFG_COHERENT, record.outcomes)
        mean = scores.mean(axis=0)
        se = scores.std(axis=0, ddof=1) / math.sqrt(shots)
        assert np.all(np.abs(mean) <= 3.0 * se)
