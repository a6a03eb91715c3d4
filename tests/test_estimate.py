"""Tests for sampling, likelihood, maximum likelihood, and the CRB experiment."""

import math

import numpy as np
import pytest

from cvlbi.core import ValidationError, gaussian_log_pdf
from cvlbi.estimate import (
    MeasurementRecord,
    crb_experiment,
    log_likelihood,
    log_likelihood_gradient,
    mle,
    moment_initializer,
    sample_records,
)
from cvlbi.fisher import score_vectors
from cvlbi.interferometer import InterferometerConfig, reduced_covariance_closed

CFG = InterferometerConfig.from_values(0.1, 0.0, 0.0, n_bar=1.0, theta=0.0)
CFG_COHERENT = InterferometerConfig.from_values(0.2, 0.3, 0.1, n_bar=1.0, theta=0.0)


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

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError, match="shots"):
            sample_records(CFG, 0, seed=0)

    def test_empty_record_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            MeasurementRecord(outcomes=np.empty((0, 4)), seed=0, config=CFG)

    def test_non_finite_outcomes_rejected(self):
        bad = np.zeros((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            MeasurementRecord(outcomes=bad, seed=0, config=CFG)


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
        g1, g2 = moment_initializer(record)
        assert math.hypot(g1 - 0.3, g2 - 0.1) <= 0.05

    def test_exhausted_iteration_budget_carries_best_iterate(self, monkeypatch):
        import cvlbi.estimate as estimate_module
        from cvlbi.core import ConvergenceError

        monkeypatch.setattr(estimate_module, "MAX_ITERATIONS", 1)
        record = sample_records(CFG_COHERENT, 5000, seed=13)
        with pytest.raises(ConvergenceError) as excinfo:
            mle(record)
        best = excinfo.value.best
        assert best is not None and math.hypot(*best) <= 1.0 + 1e-12


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
            assert _brentq(f, a, b, xtol=1e-15) == optimize.brentq(f, a, b, xtol=1e-15)
            checked += 1

    def test_same_sign_bracket_rejected(self):
        from cvlbi.estimate import _brentq

        with pytest.raises(ValidationError):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15)


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

    def test_too_few_replications_rejected(self):
        with pytest.raises(ValidationError, match="replications"):
            crb_experiment(CFG, shots=100, replications=10, seed=0)

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


class TestScoreStatistics:
    def test_sampled_score_mean_vanishes(self):
        shots = 100_000
        record = sample_records(CFG_COHERENT, shots, seed=41)
        scores = score_vectors(CFG_COHERENT, record.outcomes)
        mean = scores.mean(axis=0)
        se = scores.std(axis=0, ddof=1) / math.sqrt(shots)
        assert np.all(np.abs(mean) <= 3.0 * se)
