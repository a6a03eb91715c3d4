"""Tests for the Fisher-information routes and their cross-validation."""

import math

import numpy as np
import pytest

from cvlbi.core import ValidationError
from cvlbi.fisher import (
    LIMIT_INFINITY,
    LIMIT_ZERO,
    MAX_MC_SAMPLES,
    PSD_FLOOR,
    FisherMatrix,
    _min_eigenvalue_2x2,
    fisher_analytic,
    fisher_limit_closed_form,
    fisher_monte_carlo,
    score_vectors,
)
from cvlbi.interferometer import (
    InterferometerConfig,
    MeasuredModel,
    reduced_covariance,
    reduced_covariance_closed,
)
from cvlbi.states import SourceParams, TmsvParams

RNG_SEED = 91117


def random_config(rng) -> InterferometerConfig:
    phase = rng.uniform(0, 2 * np.pi)
    mag = math.sqrt(rng.uniform(0, 1))
    return InterferometerConfig(
        SourceParams(rng.uniform(1e-3, 1.0), mag * math.cos(phase), mag * math.sin(phase)),
        TmsvParams(rng.uniform(0, 10), rng.uniform(0, 2 * np.pi)),
    )


class TestFisherMatrixType:
    def test_trace_norm_equals_trace_for_psd(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(100):
            f = fisher_analytic(random_config(rng))
            eigs = np.linalg.eigvalsh(f.entries)
            assert math.isclose(f.trace_norm, float(np.sum(np.abs(eigs))), rel_tol=1e-14)
            assert math.isclose(f.trace_norm, float(np.trace(f.entries)), rel_tol=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            FisherMatrix(np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_negative_definite_rejected(self):
        with pytest.raises(ValidationError, match="semidefinite"):
            FisherMatrix(np.array([[-1.0, 0.0], [0.0, 1.0]]))


def psd_check_reference(m: np.ndarray) -> bool:
    """FisherMatrix's PSD decision as made through LAPACK before the closed form."""
    scale = float(np.max(np.abs(m)))
    return float(np.linalg.eigvalsh(m)[0]) >= PSD_FLOOR * max(1.0, scale)


def random_symmetric_2x2(rng, scale: float) -> np.ndarray:
    a = scale * rng.standard_normal((2, 2))
    return (a + a.T) / 2.0


class TestClosedFormPsdCheck:
    def test_min_eigenvalue_matches_lapack(self):
        rng = np.random.default_rng(RNG_SEED + 20)
        for _ in range(5000):
            m = random_symmetric_2x2(rng, 10.0 ** rng.uniform(-6.0, 8.0))
            scale = max(1.0, float(np.max(np.abs(m))))
            closed = _min_eigenvalue_2x2(m[0, 0], m[1, 0], m[1, 1])
            assert abs(closed - np.linalg.eigvalsh(m)[0]) <= 1e-12 * scale

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_decision_at_twice_the_floor_unchanged(self, sign):
        rng = np.random.default_rng(RNG_SEED + 21 + int(sign > 0))
        for _ in range(2000):
            phi = rng.uniform(0.0, 2 * np.pi)
            rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            top = 10.0 ** rng.uniform(-3.0, 8.0)
            m = rot @ np.diag([top, 0.0]) @ rot.T
            m = (m + m.T) / 2.0
            scale = max(1.0, float(np.max(np.abs(m))))
            m = m + sign * 2e-9 * scale * np.eye(2)
            expected = psd_check_reference(m)
            assert expected == (sign > 0)
            if expected:
                FisherMatrix(m)
            else:
                with pytest.raises(ValidationError, match="semidefinite"):
                    FisherMatrix(m)

    def test_decision_matches_lapack_on_random_matrices(self):
        rng = np.random.default_rng(RNG_SEED + 23)
        for _ in range(2000):
            m = random_symmetric_2x2(rng, 10.0 ** rng.uniform(-3.0, 6.0))
            try:
                FisherMatrix(m)
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == psd_check_reference(m)


class TestCovarianceDerivatives:
    """D1 and D2 of the measured model are the exact derivatives dV_r/dg."""

    def test_slot_pattern(self):
        cfg = InterferometerConfig.from_values(0.1, 0.3, -0.2, n_bar=2.0, theta=1.0)
        model = MeasuredModel.from_config(cfg)
        expected_d1 = np.zeros((4, 4))
        expected_d1[0, 2] = expected_d1[2, 0] = 0.05
        expected_d1[1, 3] = expected_d1[3, 1] = 0.05
        expected_d2 = np.zeros((4, 4))
        expected_d2[0, 3] = expected_d2[3, 0] = 0.05
        expected_d2[1, 2] = expected_d2[2, 1] = -0.05
        assert np.array_equal(model.d1, expected_d1)
        assert np.array_equal(model.d2, expected_d2)

    def test_independent_of_coherence_and_squeezing(self):
        a = MeasuredModel.from_config(InterferometerConfig.from_values(0.4, 0.0, 0.0, n_bar=0.0))
        b = MeasuredModel.from_config(
            InterferometerConfig.from_values(0.4, 0.9, -0.3, n_bar=7.0, theta=2.0)
        )
        assert np.array_equal(a.d1, b.d1) and np.array_equal(a.d2, b.d2)

    def test_matches_central_differences(self):
        # differentiate the independent 8x8 pipeline, not the model itself
        h = 1e-6
        cfg = InterferometerConfig.from_values(0.3, 0.2, 0.1, n_bar=1.5, theta=0.7)
        model = MeasuredModel.from_config(cfg)

        def v_at(g1, g2):
            return reduced_covariance(
                InterferometerConfig.from_values(0.3, g1, g2, n_bar=1.5, theta=0.7)
            ).v_r_pipeline.entries

        fd1 = (v_at(0.2 + h, 0.1) - v_at(0.2 - h, 0.1)) / (2 * h)
        fd2 = (v_at(0.2, 0.1 + h) - v_at(0.2, 0.1 - h)) / (2 * h)
        assert np.max(np.abs(fd1 - model.d1)) <= 1e-8
        assert np.max(np.abs(fd2 - model.d2)) <= 1e-8


class TestFisherAnalytic:
    def test_vacuum_resource_reference_value(self):
        f = fisher_analytic(InterferometerConfig.from_values(0.1, 0.0, 0.0, n_bar=0.0))
        expected = 2.0 * 0.1**2 / (4.0 + 4.0 * 0.1 + 0.1**2)  # 0.02 / 4.41
        np.testing.assert_allclose(f.entries, expected * np.eye(2), rtol=1e-12)
        assert math.isclose(expected, 0.0045351, rel_tol=1e-4)

    def test_large_squeezing_reference_value(self):
        f = fisher_analytic(InterferometerConfig.from_values(0.1, 0.0, 0.0, n_bar=1e8))
        expected = 0.1**2 / 1.1**2  # ~0.0082645
        np.testing.assert_allclose(np.diag(f.entries), expected, rtol=1e-3)

    def test_equals_zero_limit_at_zero_squeezing(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(50):
            cfg = InterferometerConfig(random_config(rng).source, TmsvParams(0.0))
            fa = fisher_analytic(cfg).entries
            fl = fisher_limit_closed_form(
                cfg.source.epsilon, cfg.source.g1, cfg.source.g2, LIMIT_ZERO
            ).entries
            np.testing.assert_allclose(fa, fl, rtol=0, atol=1e-12 * np.max(np.abs(fl)))

    def test_off_diagonal_sign_follows_coherence_product(self):
        for g1, g2 in ((0.3, 0.4), (0.3, -0.4), (-0.3, -0.4)):
            cfg = InterferometerConfig.from_values(0.2, g1, g2, n_bar=0.0)
            off = fisher_analytic(cfg).entries[0, 1]
            assert math.copysign(1.0, off) == math.copysign(1.0, g1 * g2)

    def test_positive_semidefinite_randomized(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(1000):
            f = fisher_analytic(random_config(rng))
            assert np.linalg.eigvalsh(f.entries)[0] >= -1e-9

    def test_monotone_in_squeezing_on_grid(self):
        for eps, g1, g2 in ((0.1, 0.0, 0.0), (0.1, 0.3, 0.4), (0.05, 0.9, 0.0)):
            diag_values = []
            for n_bar in (0.0, 0.1, 1.0, 10.0, 100.0):
                f = fisher_analytic(InterferometerConfig.from_values(eps, g1, g2, n_bar=n_bar))
                diag_values.append(np.diag(f.entries))
            diffs = np.diff(np.array(diag_values), axis=0)
            assert np.all(diffs >= -1e-15)


class TestLimitConvergence:
    GRID = [(eps, g) for eps in (1e-3, 1e-2, 1e-1) for g in ((0.0, 0.0), (0.3, 0.4), (0.9, 0.0))]

    @staticmethod
    def rel_gap(analytic, limit):
        return float(np.max(np.abs(analytic - limit)) / np.max(np.abs(limit)))

    @pytest.mark.parametrize("eps,g", GRID)
    def test_zero_limit_at_tiny_squeezing(self, eps, g):
        fa = fisher_analytic(InterferometerConfig.from_values(eps, *g, n_bar=1e-6)).entries
        fl = fisher_limit_closed_form(eps, *g, LIMIT_ZERO).entries
        assert self.rel_gap(fa, fl) <= 1e-3

    @pytest.mark.parametrize("eps,g", GRID)
    def test_infinite_limit_at_huge_squeezing(self, eps, g):
        fa = fisher_analytic(InterferometerConfig.from_values(eps, *g, n_bar=1e8)).entries
        fl = fisher_limit_closed_form(eps, *g, LIMIT_INFINITY).entries
        assert self.rel_gap(fa, fl) <= 1e-3

    def test_convergence_rate_toward_zero_limit(self):
        # the gap shrinks monotonically as the squeezing vanishes
        fl = fisher_limit_closed_form(0.1, 0.3, 0.4, LIMIT_ZERO).entries
        gaps = []
        for n_bar in (1e-2, 1e-4, 1e-6):
            fa = fisher_analytic(
                InterferometerConfig.from_values(0.1, 0.3, 0.4, n_bar=n_bar)
            ).entries
            gaps.append(self.rel_gap(fa, fl))
        assert gaps[0] > gaps[1] > gaps[2]


class TestLimitClosedForms:
    def test_zero_limit_reference_diagonal(self):
        f = fisher_limit_closed_form(0.1, 0.0, 0.0, LIMIT_ZERO)
        np.testing.assert_allclose(np.diag(f.entries), 0.02 / 4.41, rtol=1e-14)

    def test_small_eps_trace_scaling(self):
        eps = 1e-3
        for g1, g2 in ((0.0, 0.0), (0.3, 0.4), (0.9, 0.0)):
            t0 = fisher_limit_closed_form(eps, g1, g2, LIMIT_ZERO).trace_norm
            ti = fisher_limit_closed_form(eps, g1, g2, LIMIT_INFINITY).trace_norm
            assert abs(t0 / eps**2 - 1.0) <= 0.05
            assert abs(ti / (2.0 * eps**2) - 1.0) <= 0.05

    def test_trace_ratio_approaches_two(self):
        # the factor-of-two advantage holds in the small-eps limit
        eps = 1e-8
        t0 = fisher_limit_closed_form(eps, 0.3, 0.4, LIMIT_ZERO).trace_norm
        ti = fisher_limit_closed_form(eps, 0.3, 0.4, LIMIT_INFINITY).trace_norm
        assert abs(ti / t0 - 2.0) <= 1e-3

    def test_finite_eps_ratio_carries_first_order_correction(self):
        # at eps = 1e-3 the exact ratio is 2 - 2 eps + O(eps^2), not 2
        eps = 1e-3
        t0 = fisher_limit_closed_form(eps, 0.0, 0.0, LIMIT_ZERO).trace_norm
        ti = fisher_limit_closed_form(eps, 0.0, 0.0, LIMIT_INFINITY).trace_norm
        assert math.isclose(ti / t0, 2.0 - 2.0 * eps, rel_tol=1e-5)

    def test_off_diagonal_small_eps_scaling_recorded(self):
        # measured decay exponent of the off-diagonal: fourth order in eps
        g1, g2 = 0.3, 0.4
        eps_values = (1e-1, 1e-2, 1e-3)
        offs = [
            abs(fisher_limit_closed_form(e, g1, g2, LIMIT_ZERO).entries[0, 1])
            for e in eps_values
        ]
        slope = np.polyfit(np.log(eps_values), np.log(offs), 1)[0]
        assert 3.5 <= slope <= 4.5

    @pytest.mark.parametrize("which", [LIMIT_ZERO, LIMIT_INFINITY])
    def test_diagonal_coherence_dependence_is_fourth_order(self, which):
        # the diagonals lose their g dependence below fourth order in eps
        eps_values = np.array([1e-1, 1e-2, 1e-3])
        gaps = [
            abs(
                fisher_limit_closed_form(e, 0.6, 0.3, which).entries[0, 0]
                - fisher_limit_closed_form(e, 0.0, 0.0, which).entries[0, 0]
            )
            for e in eps_values
        ]
        slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
        assert 3.5 <= slope <= 4.5

    def test_unknown_limit_rejected(self):
        with pytest.raises(ValidationError, match="limit"):
            fisher_limit_closed_form(0.1, 0.0, 0.0, "huge")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            fisher_limit_closed_form(0.0, 0.0, 0.0, LIMIT_ZERO)
        with pytest.raises(ValidationError):
            fisher_limit_closed_form(0.1, 1.0, 1.0, LIMIT_ZERO)

    @pytest.mark.parametrize("which", [LIMIT_ZERO, LIMIT_INFINITY])
    def test_overflowing_epsilon_rejected_naming_epsilon(self, which, largest_epsilon):
        too_large = math.nextafter(largest_epsilon, math.inf)
        with pytest.raises(ValidationError, match="epsilon = .* is too large"):
            fisher_limit_closed_form(too_large, 0.5, 0.0, which)

    @pytest.mark.parametrize(
        "g", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)]
    )
    @pytest.mark.parametrize("which", [LIMIT_ZERO, LIMIT_INFINITY])
    def test_non_finite_coherence_rejected_naming_g(self, which, g):
        with pytest.raises(ValidationError, match=r"finite g .*\(g1=.*, g2=.*\)"):
            fisher_limit_closed_form(0.1, *g, which)


class TestMonteCarlo:
    CFG = InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0, theta=0.0)

    def test_score_mean_within_three_sigma(self):
        mc = fisher_monte_carlo(self.CFG, 200_000, seed=2)
        assert np.all(np.abs(mc.score_mean) <= 3.0 * mc.score_se)

    def test_matches_analytic_within_three_se(self):
        mc = fisher_monte_carlo(self.CFG, 200_000, seed=3)
        fa = fisher_analytic(self.CFG).entries
        assert np.all(np.abs(mc.fisher.entries - fa) <= 3.0 * mc.standard_error)

    def test_deterministic_per_seed(self):
        a = fisher_monte_carlo(self.CFG, 50_000, seed=7)
        b = fisher_monte_carlo(self.CFG, 50_000, seed=7)
        assert np.array_equal(a.fisher.entries, b.fisher.entries)
        assert np.array_equal(a.standard_error, b.standard_error)

    def test_different_seeds_differ(self):
        a = fisher_monte_carlo(self.CFG, 50_000, seed=7)
        b = fisher_monte_carlo(self.CFG, 50_000, seed=8)
        assert not np.array_equal(a.fisher.entries, b.fisher.entries)

    def test_small_sample_count_rejected(self):
        with pytest.raises(ValidationError, match="samples"):
            fisher_monte_carlo(self.CFG, 999, seed=0)

    def test_absurd_sample_count_rejected_before_sampling(self):
        message = rf"samples must be in \[1000, {MAX_MC_SAMPLES}\]"
        with pytest.raises(ValidationError, match=message):
            fisher_monte_carlo(self.CFG, 10**12, seed=0)

    def test_score_covariance_equals_fisher(self):
        # empirical covariance of the score vector reproduces the information matrix
        rng = np.random.default_rng(RNG_SEED + 3)
        v = reduced_covariance_closed(self.CFG).entries
        x = rng.standard_normal((200_000, 4)) @ np.linalg.cholesky(v).T
        scores = score_vectors(self.CFG, x)
        cov = np.cov(scores.T, ddof=1)
        fa = fisher_analytic(self.CFG).entries
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / (len(x) - 1))
        assert np.all(np.abs(cov - fa) <= 3.0 * se)
