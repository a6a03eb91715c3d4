"""Tests for the Fisher-information routes and their cross-validation."""

import contextlib
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    TAU,
    block_basis,
    block_betas,
    block_fisher,
    direct_detection_fisher,
    fisher_decimal,
    heterodyne_fisher,
)

from cvlbi.cli import main
from cvlbi.core import DRAW_CHUNK, ValidationError, symplectic_form
from cvlbi.estimate import (
    MeasurementRecord,
    crb_experiment,
    log_likelihood,
    mle,
    sample_records,
)
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
    reduced_covariance,
    reduced_covariance_closed,
)
from cvlbi.schemes import SchemeId
from cvlbi.states import SourceParams, TmsvParams, astronomical_covariance

RNG_SEED = 91117


def random_config(rng) -> InterferometerConfig:
    phase = rng.uniform(0, 2 * np.pi)
    mag = math.sqrt(rng.uniform(0, 1))
    return InterferometerConfig(
        SourceParams(rng.uniform(1e-3, 1.0), mag * math.cos(phase), mag * math.sin(phase)),
        TmsvParams(rng.uniform(0, 10), rng.uniform(0, 2 * np.pi)),
    )


def paper_span_config(rng) -> InterferometerConfig:
    """eps log-uniform in [1e-6, 2], n_bar log-uniform in [1e-3, 1e3], any theta, |g|^2 <= 0.8."""
    phase = rng.uniform(0, 2 * np.pi)
    mag = math.sqrt(rng.uniform(0, 0.8))
    return InterferometerConfig.from_values(
        10.0 ** rng.uniform(-6, math.log10(2.0)),
        mag * math.cos(phase),
        mag * math.sin(phase),
        n_bar=10.0 ** rng.uniform(-3, 3),
        theta=rng.uniform(0, 2 * np.pi),
    )


def score_reference(cfg: InterferometerConfig, x: np.ndarray) -> np.ndarray:
    """Scores by the unwhitened formula (x^T V^-1 D_k V^-1 x - tr V^-1 D_k) / 2."""
    inv = np.linalg.inv(cfg.covariance(cfg.source.g1, cfg.source.g2))
    return np.column_stack([
        0.5 * (np.einsum("ni,ij,nj->n", x, inv @ d @ inv, x) - np.trace(inv @ d))
        for d in (cfg.d[0], cfg.d[1])
    ])


def monte_carlo_reference(cfg: InterferometerConfig, samples: int, seed: int):
    """Chunk by chunk on the same draws: outcomes x = L z, scored by ``score_reference``.

    Returns (entries, standard_error, score_mean, score_se) as
    ``fisher_monte_carlo`` defines them.
    """
    chol = np.linalg.cholesky(cfg.covariance(cfg.source.g1, cfg.source.g2))
    rng = np.random.default_rng(seed)
    prod_sum, prod_sumsq, score_sum = np.zeros(3), np.zeros(3), np.zeros(2)
    for start in range(0, samples, DRAW_CHUNK):
        z = rng.standard_normal((min(DRAW_CHUNK, samples - start), 4))
        s = score_reference(cfg, z @ chol.T)
        prods = np.column_stack([s[:, 0] * s[:, 0], s[:, 0] * s[:, 1], s[:, 1] * s[:, 1]])
        prod_sum += prods.sum(axis=0)
        prod_sumsq += (prods * prods).sum(axis=0)
        score_sum += s.sum(axis=0)
    n = float(samples)
    mean = prod_sum / n
    se = np.sqrt((prod_sumsq / n - mean * mean) / (n - 1.0))
    s_mean = score_sum / n
    s_se = np.sqrt((prod_sum[::2] / n - s_mean * s_mean) / (n - 1.0))
    sym = [[0, 1], [1, 2]]
    return mean[sym], se[sym], s_mean, s_se


def source_qfi(eps: float, g1: float, g2: float) -> np.ndarray:
    """Quantum Fisher information in (g1, g2) of the 4x4 thermal source covariance.

    QFI_kl = vec(dV_k)^T (V (x) V - Omega (x) Omega)^-1 vec(dV_l) / 2 in the real
    quadrature basis with vacuum covariance I (Monras, arXiv:1303.3682; Safranek,
    J. Phys. A 52, 035304, 2019). dV/dg is exact: V is linear in g.
    """
    v = astronomical_covariance(SourceParams(eps, g1, g2)).entries
    dv1 = eps * np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    dv2 = eps * np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)
    omega = symplectic_form(2)
    m = np.kron(v, v) - np.kron(omega, omega)
    vecs = np.column_stack([dv1.ravel(), dv2.ravel()])
    qfi = 0.5 * vecs.T @ np.linalg.solve(m, vecs)
    return 0.5 * (qfi + qfi.T)


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
        expected_d1 = np.zeros((4, 4))
        expected_d1[0, 2] = expected_d1[2, 0] = 0.05
        expected_d1[1, 3] = expected_d1[3, 1] = 0.05
        expected_d2 = np.zeros((4, 4))
        expected_d2[0, 3] = expected_d2[3, 0] = 0.05
        expected_d2[1, 2] = expected_d2[2, 1] = -0.05
        assert np.array_equal(cfg.d[0], expected_d1)
        assert np.array_equal(cfg.d[1], expected_d2)

    def test_independent_of_coherence_and_squeezing(self):
        a = InterferometerConfig.from_values(0.4, 0.0, 0.0, n_bar=0.0)
        b = InterferometerConfig.from_values(0.4, 0.9, -0.3, n_bar=7.0, theta=2.0)
        assert np.array_equal(a.d[0], b.d[0]) and np.array_equal(a.d[1], b.d[1])

    def test_matches_central_differences(self):
        # differentiate the independent 8x8 pipeline, not the model itself
        h = 1e-6
        cfg = InterferometerConfig.from_values(0.3, 0.2, 0.1, n_bar=1.5, theta=0.7)

        def v_at(g1, g2):
            return reduced_covariance(
                InterferometerConfig.from_values(0.3, g1, g2, n_bar=1.5, theta=0.7)
            ).v_r_pipeline.entries

        fd1 = (v_at(0.2 + h, 0.1) - v_at(0.2 - h, 0.1)) / (2 * h)
        fd2 = (v_at(0.2, 0.1 + h) - v_at(0.2, 0.1 - h)) / (2 * h)
        assert np.max(np.abs(fd1 - cfg.d[0])) <= 1e-8
        assert np.max(np.abs(fd2 - cfg.d[1])) <= 1e-8


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

    def test_stacked_route_equals_per_derivative_route_bits(self):
        # the reference route: one solve per D_i and 0.5 tr(A_i A_j) per entry
        rng = np.random.default_rng(RNG_SEED + 9)
        for _ in range(1000):
            phase, mag = rng.uniform(0, 2 * np.pi), math.sqrt(rng.uniform(0, 1))
            cfg = InterferometerConfig.from_values(
                10.0 ** rng.uniform(-4, 0), mag * math.cos(phase), mag * math.sin(phase),
                n_bar=10.0 ** rng.uniform(-6, 4), theta=rng.uniform(0, 2 * np.pi),
            )
            v = cfg.measured_covariance
            a1, a2 = (np.linalg.solve(v, d) for d in (cfg.d[0], cfg.d[1]))
            f11, f22, f12 = (0.5 * float(np.trace(x @ y))
                             for x, y in ((a1, a1), (a2, a2), (a1, a2)))
            expected = np.array([[f11, f12], [f12, f22]])
            assert fisher_analytic(cfg).entries.tobytes() == expected.tobytes()

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="^seed must be >= 0$"):
            fisher_monte_carlo(self.CFG, 1000, seed=-1)

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

    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_matches_analytic_within_three_se_in_paper_regime(self, eps):
        cfg = InterferometerConfig.from_values(eps, 0.3, 0.2, n_bar=1e3, theta=0.7)
        mc = fisher_monte_carlo(cfg, 200_000, seed=11)
        fa = fisher_analytic(cfg).entries
        assert np.all(np.abs(mc.fisher.entries - fa) <= 3.0 * mc.standard_error)

    def test_memory_stays_at_one_chunk(self):
        # the chunk buffers hold 1.8 MB; a million samples must not cost more than two chunks
        tracemalloc.start()
        try:
            fisher_monte_carlo(self.CFG, 10**6, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_matches_unwhitened_reference_on_same_draws(self):
        samples = 3 * DRAW_CHUNK + 17
        mc = fisher_monte_carlo(self.CFG, samples, seed=5)
        entries, se, s_mean, s_se = monte_carlo_reference(self.CFG, samples, seed=5)
        np.testing.assert_allclose(mc.fisher.entries, entries, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mc.standard_error, se, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mc.score_mean, s_mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mc.score_se, s_se, rtol=1e-12, atol=0)


class TestScoreVectors:
    CFG = InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0, theta=0.0)

    def test_matches_unwhitened_reference_over_paper_span(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(300):
            cfg = paper_span_config(rng)
            v = cfg.covariance(cfg.source.g1, cfg.source.g2)
            x = rng.standard_normal((64, 4)) @ np.linalg.cholesky(v).T
            expected = score_reference(cfg, x)
            scale = np.max(np.abs(expected), axis=0)
            assert np.all(np.abs(score_vectors(cfg, x) - expected) <= 1e-11 * scale)

    @pytest.mark.parametrize("shape", [(0, 4), (2, 2, 4), (3,), (5, 3), (), (4,)])
    def test_wrong_shape_rejected(self, shape):
        message = r"outcomes must be an \(M >= 1\) x 4 array, got " + re.escape(str(shape))
        with pytest.raises(ValidationError, match=message):
            score_vectors(self.CFG, np.ones(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        x = np.ones((3, 4))
        x[1, 2] = bad
        with pytest.raises(ValidationError, match="outcomes must be finite"):
            score_vectors(self.CFG, x)


class TestQuantumFisherOracle:
    """No measurement on the source plus a g-independent resource beats the source QFI."""

    @settings(max_examples=60)
    @given(
        log_eps=st.floats(-3.0, math.log10(2.5)),
        mag_sq=st.floats(0.0, 0.8),
        phase=st.floats(0.0, 2 * math.pi),
        log_n_bar=st.floats(-3.0, 3.0),
        theta=st.floats(0.0, 2 * math.pi),
    )
    def test_homodyne_fisher_below_qfi(self, log_eps, mag_sq, phase, log_n_bar, theta):
        eps, mag = 10.0**log_eps, math.sqrt(mag_sq)
        g1, g2 = mag * math.cos(phase), mag * math.sin(phase)
        qfi = source_qfi(eps, g1, g2)
        cfg = InterferometerConfig.from_values(eps, g1, g2, n_bar=10.0**log_n_bar, theta=theta)
        gap = qfi - fisher_analytic(cfg).entries
        assert np.linalg.eigvalsh(gap)[0] >= -1e-12 * np.trace(qfi)

    def test_weak_thermal_light_trace(self):
        eps, g1, g2 = 1e-3, 0.3, 0.2
        expected = 1.0 + 1.0 / (1.0 - (g1 * g1 + g2 * g2))
        assert math.isclose(expected, 2.1494, rel_tol=1e-4)
        assert math.isclose(np.trace(source_qfi(eps, g1, g2)) / eps, expected, rel_tol=1e-3)

    @settings(max_examples=60)
    @given(
        log_eps=st.floats(-6.0, math.log10(2.5)),
        mag_sq=st.floats(0.0, 0.8),
        phase=st.floats(0.0, 2 * math.pi),
        log_n_bar=st.floats(-3.0, 3.0),
        theta=st.floats(0.0, 2 * math.pi),
    )
    def test_homodyne_trace_is_order_eps_below_qfi(self, log_eps, mag_sq, phase, log_n_bar, theta):
        # to lowest order tr F <= 2 eps^2 (infinite squeezing) and tr QFI >= 2 eps (g = 0)
        eps, mag = 10.0**log_eps, math.sqrt(mag_sq)
        g1, g2 = mag * math.cos(phase), mag * math.sin(phase)
        cfg = InterferometerConfig.from_values(eps, g1, g2, n_bar=10.0**log_n_bar, theta=theta)
        ratio = np.trace(fisher_analytic(cfg).entries) / np.trace(source_qfi(eps, g1, g2))
        assert ratio <= eps


#: above this eps the lowest-order CV_INF value 2 eps^2 exceeds tr QFI = 4 eps / (2 + eps) at g = 0
CV_INF_QFI_CROSSING = math.sqrt(3.0) - 1.0


def compare_bounds(eps: float) -> dict:
    """The lowest-order bound of each scheme at eps, by name, as ``cvlbi compare`` prints it."""
    argv = ["compare", "--eps-min", repr(eps / 2.0), "--eps-max", repr(eps), "--eps-points", "2"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    curves = json.loads(out.getvalue())["curves"]
    assert all(curve["points"][-1][0] == eps for curve in curves)
    return {curve["scheme"]: curve["points"][-1][1] for curve in curves}


class TestSchemeBoundsAgainstQfi:
    """The scheme comparison's single-shot traces stay below the source's quantum limit."""

    def test_trace_normalisations_match(self):
        # the CV bounds are small-eps traces of the homodyne Fisher matrix over (g1, g2),
        # the coordinates of source_qfi, whose trace at g = 0 is 4 eps / (2 + eps) = 2 eps + ...;
        # LOCAL is taken to be heterodyne detection at each site, the same matrix as
        # homodyne readout with a vacuum resource
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(300):
            eps, mag = 10.0 ** rng.uniform(-4, 0), 0.99 * math.sqrt(rng.uniform())
            phase, theta = rng.uniform(0, 2 * np.pi, size=2)
            g1, g2 = mag * math.cos(phase), mag * math.sin(phase)
            cfg = InterferometerConfig.from_values(eps, g1, g2, n_bar=0.0, theta=theta)
            homodyne, heterodyne = fisher_analytic(cfg).entries, heterodyne_fisher(eps, g1, g2)
            assert np.max(np.abs(heterodyne - homodyne)) <= 1e-14 * np.max(np.abs(homodyne))
        eps = 1e-6
        bounds = compare_bounds(eps)
        for scheme, n_bar in ((SchemeId.CV_INF, 1e8), (SchemeId.CV_0, 0.0)):
            cfg = InterferometerConfig.from_values(eps, 0.0, 0.0, n_bar=n_bar)
            trace = np.trace(fisher_analytic(cfg).entries)
            assert math.isclose(bounds[scheme.value], trace, rel_tol=1e-5)
        trace = np.trace(heterodyne_fisher(eps, 0.0, 0.0))
        assert math.isclose(bounds[SchemeId.LOCAL.value], trace, rel_tol=1e-5)
        for eps in (1e-6, 0.1, 1.0):
            qfi_trace = np.trace(source_qfi(eps, 0.0, 0.0))
            assert math.isclose(qfi_trace, 4.0 * eps / (2.0 + eps), rel_tol=1e-9)

    @settings(max_examples=60)
    @given(
        log_eps=st.floats(-6.0, 0.0),
        mag_sq=st.floats(0.0, 0.8),
        phase=st.floats(0.0, 2 * math.pi),
    )
    def test_single_shot_traces_below_qfi(self, log_eps, mag_sq, phase):
        eps, mag = 10.0**log_eps, math.sqrt(mag_sq)
        g1, g2 = mag * math.cos(phase), mag * math.sin(phase)
        qfi_trace = np.trace(source_qfi(eps, g1, g2))
        for limit in (LIMIT_INFINITY, LIMIT_ZERO):
            assert fisher_limit_closed_form(eps, g1, g2, limit).trace_norm <= qfi_trace
        for scheme, bound in compare_bounds(eps).items():
            if scheme != SchemeId.CV_INF.value or eps <= CV_INF_QFI_CROSSING:
                assert bound <= qfi_trace

    def test_lowest_order_cv_inf_exceeds_qfi_above_the_crossing(self):
        # the default compare grid runs to eps = 1, where 2 eps^2 = 2 against tr QFI = 4/3
        for eps, over in ((0.7, False), (0.75, True), (1.0, True)):
            qfi_trace = np.trace(source_qfi(eps, 0.0, 0.0))
            assert bool(compare_bounds(eps)[SchemeId.CV_INF.value] > qfi_trace) is over


#: above this eps the trace of LIMIT_INFINITY exceeds the exact direct-detection trace at g = 0
DD_CROSSING = 0.8392867552141616


class TestDirectDetection:
    """The DD bound derived from threshold detection of the thermal source itself."""

    def test_trace_tends_to_the_dd_constant(self):
        # at g = 0 the trace is eps / (1 + eps / 2)^2, measured to 5.5e-13 relative: the
        # inclusion and exclusion of the no-click probabilities loses digits as eps shrinks
        for eps, expected in ((0.1, 0.90703), (1e-2, 0.99007), (1e-3, 0.99900)):
            trace = np.trace(direct_detection_fisher(eps, 0.0, 0.0))
            assert round(trace / eps, 5) == expected
            assert math.isclose(trace, eps / (1.0 + eps / 2.0) ** 2, rel_tol=1e-11)
        assert compare_bounds(1e-3)[SchemeId.DD.value] == 1e-3  # the constant ``compare`` prints

    @pytest.mark.parametrize("g1, g2, expected", [(0.3, 0.2, 0.99992), (0.6, -0.5, 0.99997)])
    def test_lowest_order_trace_depends_on_the_coherence(self, g1, g2, expected):
        # the lowest-order DD trace is (eps / 2)(1 / (1 - g1^2) + 1 / (1 - g2^2)), while
        # ``compare`` prints its g = 0 value eps
        eps = 1e-4
        lowest_order = eps / 2.0 * (1.0 / (1.0 - g1 * g1) + 1.0 / (1.0 - g2 * g2))
        assert round(np.trace(direct_detection_fisher(eps, g1, g2)) / lowest_order, 5) == expected

    @settings(max_examples=60)
    @given(
        log_eps=st.floats(-4.0, math.log10(0.8)),
        mag=st.floats(0.0, 0.99),
        phase=st.floats(0.0, 2 * math.pi),
        log_n_bar=st.floats(-3.0, 4.0),
        theta=st.floats(0.0, 2 * math.pi),
    )
    @example(log_eps=math.log10(0.8), mag=0.0, phase=0.0, log_n_bar=4.0, theta=0.0)
    def test_homodyne_trace_below_direct_detection(self, log_eps, mag, phase, log_n_bar, theta):
        # the paper's conclusion with exact values; the worst ratio measured is 0.968, at
        # eps 0.8 and g = 0 with large n_bar, the explicit example
        cfg = weak_source_config(log_eps, mag, phase, theta, 10.0**log_n_bar)
        src = cfg.source
        dd = direct_detection_fisher(src.epsilon, src.g1, src.g2)
        assert np.trace(fisher_analytic(cfg).entries) <= np.trace(dd)

    def test_infinite_squeezing_exceeds_direct_detection_above_the_crossing(self):
        # the paper's conclusion holds for eps below DD_CROSSING only; the ratio of the
        # traces is 1.048 at eps 0.9 and 1.125 at eps 1
        def ratio(eps):
            limit = fisher_limit_closed_form(eps, 0.0, 0.0, LIMIT_INFINITY).trace_norm
            return limit / np.trace(direct_detection_fisher(eps, 0.0, 0.0))

        assert ratio(DD_CROSSING * (1.0 - 1e-9)) < 1.0 < ratio(DD_CROSSING * (1.0 + 1e-9))
        assert round(ratio(0.8), 3) == 0.968
        assert round(ratio(0.9), 3) == 1.048
        assert round(ratio(1.0), 3) == 1.125


#: draws of one weak-source config: eps log-uniform in [1e-4, 1], |g| <= 0.9, any theta
WEAK_SOURCE_DRAWS = {
    "log_eps": st.floats(-4.0, 0.0),
    "mag": st.floats(0.0, 0.9),
    "phase": st.floats(0.0, 2 * math.pi),
    "theta": st.floats(0.0, 2 * math.pi),
}


def weak_source_config(log_eps, mag, phase, theta, n_bar=1.0) -> InterferometerConfig:
    return InterferometerConfig.from_values(
        10.0**log_eps, mag * math.cos(phase), mag * math.sin(phase), n_bar=n_bar, theta=theta
    )


class TestAnalyticFisherFacts:
    """Facts about the homodyne Fisher matrix over the paper's weak-source range."""

    N_BARS = np.geomspace(1e-3, 1e4, 25)

    @settings(max_examples=40)
    @given(log_n_bar=st.floats(-3.0, 2.0), **WEAK_SOURCE_DRAWS)
    def test_independent_of_the_resource_phase(self, log_eps, mag, phase, theta, log_n_bar):
        # the spread grows as about 1e-15 n_bar, the solve's rounding against V_r's condition
        first, *others = (
            fisher_analytic(weak_source_config(log_eps, mag, phase, t, 10.0**log_n_bar)).entries
            for t in theta + np.linspace(0.0, 2 * math.pi, 9, endpoint=False)
        )
        for entries in others:
            assert np.abs(entries - first).max() <= 1e-12 * np.abs(first).max()

    def traces(self, log_eps, mag, phase, theta) -> np.ndarray:
        return np.array([
            np.trace(fisher_analytic(weak_source_config(log_eps, mag, phase, theta, n)).entries)
            for n in self.N_BARS
        ])

    @settings(max_examples=40)
    @given(**WEAK_SOURCE_DRAWS)
    def test_trace_nondecreasing_in_n_bar(self, log_eps, mag, phase, theta):
        assert np.all(np.diff(self.traces(log_eps, mag, phase, theta)) >= 0.0)

    @settings(max_examples=40)
    @given(**WEAK_SOURCE_DRAWS)
    def test_trace_between_the_limit_traces(self, log_eps, mag, phase, theta):
        source = weak_source_config(log_eps, mag, phase, theta).source
        low, high = (
            fisher_limit_closed_form(source.epsilon, source.g1, source.g2, limit).trace_norm
            for limit in (LIMIT_ZERO, LIMIT_INFINITY)
        )
        traces = self.traces(log_eps, mag, phase, theta)
        assert np.all((low <= traces) & (traces <= high))


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise |a - b| over the largest |b|."""
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestBlockModel:
    """V_r as two 2x2 blocks, and the Fisher matrix it gives in closed form."""

    #: n_bar from none to far beyond the paper's squeezing
    N_BARS = (0.0, 1e-3, 0.1, 1.0, 3.0, 10.0, 1e2, 1e3, 1e4, 1e6, 1e8, 1e10)

    def configs(self, seed: int, radius: float, per_n_bar: int = 4):
        """Configs at every N_BARS value: eps log-uniform in [1e-4, 1], |g| <= radius, any theta."""
        rng = np.random.default_rng(RNG_SEED + seed)
        for n_bar in self.N_BARS:
            for _ in range(per_n_bar):
                mag, phase = radius * math.sqrt(rng.uniform()), rng.uniform(0.0, 2 * math.pi)
                yield InterferometerConfig.from_values(
                    10.0 ** rng.uniform(-4.0, 0.0), mag * math.cos(phase), mag * math.sin(phase),
                    n_bar=n_bar, theta=rng.uniform(0.0, 2 * math.pi),
                )

    def test_basis_splits_v_r_into_two_blocks(self):
        resolution = 8 * np.finfo(float).eps
        for cfg in self.configs(10, 0.999):
            src, res = cfg.source, cfg.resource
            q, v = block_basis(res.theta), cfg.measured_covariance
            assert np.abs(q.T @ q - np.eye(4)).max() <= resolution
            coherence = src.epsilon / 2 * (src.g1 * TAU[0] + src.g2 * TAU[1])
            blocks = np.zeros((4, 4))
            for k, beta in enumerate(block_betas(src.epsilon, res.n_bar)):
                blocks[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = beta * np.eye(2) + coherence
            assert np.abs(q.T @ v @ q - blocks).max() <= resolution * np.abs(v).max()

    def test_block_fisher_matches_fifty_digits(self):
        # measured: at most 6.6e-16 over these configs
        for cfg in self.configs(11, 0.999):
            src = cfg.source
            exact = fisher_decimal(src.epsilon, src.g1, src.g2, cfg.resource.n_bar)
            block = block_fisher(src.epsilon, src.g1, src.g2, cfg.resource.n_bar)
            assert relative_gap(block, exact) <= 1e-15

    def test_fisher_analytic_loses_digits_as_n_bar_grows(self):
        # measured: at most 1.7e-15 max(1, n_bar) over 3,900 configs with |g| <= 0.9; the
        # LAPACK solve against V_r, whose condition number grows as n_bar, loses them
        for cfg in self.configs(12, 0.9, per_n_bar=10):
            src, n_bar = cfg.source, cfg.resource.n_bar
            block = block_fisher(src.epsilon, src.g1, src.g2, n_bar)
            assert relative_gap(fisher_analytic(cfg).entries, block) <= 2e-15 * max(1.0, n_bar)

    def test_no_squeezing_is_the_zero_limit(self):
        for cfg in self.configs(13, 0.999):
            src = cfg.source
            limit = fisher_limit_closed_form(src.epsilon, src.g1, src.g2, LIMIT_ZERO).entries
            assert relative_gap(block_fisher(src.epsilon, src.g1, src.g2, 0.0), limit) <= 1e-15

    def test_gap_to_the_infinite_limit_falls_as_one_over_n_bar(self):
        n_bars = np.array([1e4, 1e6, 1e8, 1e10])
        for cfg in self.configs(14, 0.999, per_n_bar=1):
            src = cfg.source
            limit = fisher_limit_closed_form(src.epsilon, src.g1, src.g2, LIMIT_INFINITY).entries
            scaled = n_bars * [
                relative_gap(block_fisher(src.epsilon, src.g1, src.g2, n), limit) for n in n_bars
            ]
            np.testing.assert_allclose(scaled, scaled[-1], rtol=1e-3)


def rotation(angle: float) -> np.ndarray:
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


ROTATION_DRAWS = {
    "log_eps": st.floats(-6.0, 0.0),
    "log_n_bar": st.floats(-3.0, 4.0),
    "mag": st.floats(0.0, 0.9),
    "phase": st.floats(0.0, 2 * math.pi),
    "theta": st.floats(0.0, 2 * math.pi),
    "alpha": st.floats(0.0, 2 * math.pi),
}

#: the ranges over which the fits' equivariance was measured
MLE_ROTATION_DRAWS = {
    **ROTATION_DRAWS,
    "log_eps": st.floats(-3.0, 0.0),
    "log_n_bar": st.floats(-2.0, 2.0),
    "mag": st.floats(0.0, 0.85),
}


class TestRotationSymmetry:
    """Rotating both blocks of V_r by alpha rotates the coherence by -2 alpha.

    In the basis Q(theta) both blocks are beta_s I + gamma (g1 tau1 + g2 tau2), so the
    orthogonal U = Q (I_2 (x) r_alpha) Q^T, which depends on theta alone, gives
    U V_r(g) U^T = V_r(R g) with R = r_(-2 alpha). The Fisher information and the
    likelihood of a rotated record follow exactly; only rounding separates the sides.
    """

    def draw(self, log_eps, log_n_bar, mag, phase, theta, alpha):
        """(config at g, config at R g, U, R)."""
        eps, n_bar = 10.0**log_eps, 10.0**log_n_bar
        g = mag * np.array([math.cos(phase), math.sin(phase)])
        q = block_basis(theta)
        u, r = q @ np.kron(np.eye(2), rotation(alpha)) @ q.T, rotation(-2.0 * alpha)
        cfg, rotated = (
            InterferometerConfig.from_values(eps, *h, n_bar=n_bar, theta=theta) for h in (g, r @ g)
        )
        return cfg, rotated, u, r

    @settings(max_examples=100)
    @given(**ROTATION_DRAWS)
    def test_measured_covariance(self, log_eps, log_n_bar, mag, phase, theta, alpha):
        # measured: within 1.2e-15 relative over 300 random draws
        cfg, rotated, u, _ = self.draw(log_eps, log_n_bar, mag, phase, theta, alpha)
        turned = u @ cfg.measured_covariance @ u.T
        assert relative_gap(turned, rotated.measured_covariance) <= 1e-14

    @settings(max_examples=100)
    @given(**ROTATION_DRAWS)
    def test_fisher_information(self, log_eps, log_n_bar, mag, phase, theta, alpha):
        # measured: within 5.7e-16 max(1, n_bar) relative over 300 random draws, the
        # digits the solve against V_r loses as n_bar grows
        cfg, rotated, _, r = self.draw(log_eps, log_n_bar, mag, phase, theta, alpha)
        f = fisher_analytic(cfg).entries
        gap = relative_gap(fisher_analytic(rotated).entries, r @ f @ r.T)
        assert gap <= 1e-14 * max(1.0, 10.0**log_n_bar)

    @settings(max_examples=100)
    @given(shots=st.integers(1, 1000), **ROTATION_DRAWS)
    def test_log_likelihood(self, shots, log_eps, log_n_bar, mag, phase, theta, alpha):
        # measured: within 6.7e-16 max(1, n_bar) relative over 300 random draws
        cfg, rotated, u, _ = self.draw(log_eps, log_n_bar, mag, phase, theta, alpha)
        record = sample_records(cfg, shots, seed=0)
        turned = MeasurementRecord(record.outcomes @ u.T, 0, cfg)
        expected = log_likelihood(record, cfg.source.g1, cfg.source.g2)
        value = log_likelihood(turned, rotated.source.g1, rotated.source.g2)
        assert abs(value - expected) <= 1e-14 * max(1.0, 10.0**log_n_bar) * abs(expected)

    @settings(max_examples=100)
    @given(shots=st.integers(100, 10_000), **MLE_ROTATION_DRAWS)
    def test_mle(self, shots, log_eps, log_n_bar, mag, phase, theta, alpha):
        """mle(y U^T) = R mle(y): the disk is rotation-invariant. The two fits stop on
        their own gradient tests, so they agree to the optimizer's tolerance, not to
        rounding; their reasons may differ (4 of 200 pairs in a scratch probe)."""
        cfg, rotated, u, r = self.draw(log_eps, log_n_bar, mag, phase, theta, alpha)
        record = sample_records(cfg, shots, seed=0)
        fit = mle(record)
        turned = mle(MeasurementRecord(record.outcomes @ u.T, 0, rotated))
        # measured over 900 random draws: within 8.0e-5 CRB standard deviations (median
        # 9e-14) and 4.4e-10 in the total log-likelihood
        gap = np.array(turned.g) - r @ np.array(fit.g)
        assert math.sqrt(shots * gap @ fisher_analytic(rotated).entries @ gap) <= 1e-3
        assert abs(turned.log_likelihood - fit.log_likelihood) <= 1e-6


def ks_equal_sizes_pvalue(a, b) -> float:
    """Exact p-value of the two-sample Kolmogorov-Smirnov statistic D = k / n for samples
    of equal size n: P(D >= k / n) = 2 sum_j (-1)^(j+1) C(2n, n - j k) / C(2n, n) (Hodges
    1957). It matched scipy.stats.ks_2samp to 4e-5 relative over 2,000 random pairs; scipy
    itself is not imported, since importing scipy.stats alone takes over a second."""
    n, a, b = len(a), np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    below_a, below_b = (np.searchsorted(x, pooled, "right") for x in (a, b))
    k = int(np.max(np.abs(below_a - below_b)))
    terms = sum((-1) ** (j + 1) * math.comb(2 * n, n - j * k) for j in range(1, n // k + 1))
    return 2 * terms / math.comb(2 * n, n)


def test_crb_experiment_trace_ratio_is_rotation_invariant():
    """The trace ratio at R g has the distribution it has at g: the records at R g are
    distributed as U-rotated records at g, the fits are equivariant and the trace of the
    CRB is invariant. Compared over independent seeds, 30 a side, by the two-sample
    Kolmogorov-Smirnov test at level 1e-3, which a correct program fails with probability
    at most 1e-3. At |g| = 0.8 the disk constraint matters: about 11 of 30 fits end on
    the circle."""
    alpha, g = 0.7, 0.8 * np.array([math.cos(0.4), math.sin(0.4)])
    cfg, rotated = (
        InterferometerConfig.from_values(0.1, *h, n_bar=1.0, theta=1.0)
        for h in (g, rotation(-2.0 * alpha) @ g)
    )
    at_g, at_rg = (
        [crb_experiment(c, 1000, 30, seed).trace_ratio for seed in seeds]
        for c, seeds in ((cfg, range(30)), (rotated, range(30, 60)))
    )
    # measured at these seeds: D = 5/30, p = 0.81
    assert ks_equal_sizes_pvalue(at_g, at_rg) >= 1e-3
