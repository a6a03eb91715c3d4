"""Tests for the thermal-source and squeezed-resource constructors."""

import math
import sys

import numpy as np
import pytest
from oracles import vacuum_covariance

from cvlbi.core import ValidationError, check_physicality
from cvlbi.fisher import LIMIT_INFINITY, LIMIT_ZERO, fisher_limit_closed_form
from cvlbi.states import (
    SourceParams,
    TmsvParams,
    astronomical_covariance,
    tmsv_covariance_closed,
    tmsv_covariance_exponential,
)

RNG_SEED = 774401

R_GRID = np.arange(0.0, 2.25, 0.25)
THETA_GRID = np.arange(0.0, 2 * np.pi, np.pi / 4)


def astronomical_block_reference(params: SourceParams) -> np.ndarray:
    """The np.block construction the direct fill replaced; kept as the reference."""
    eps, g1, g2 = params.epsilon, params.g1, params.g2
    diag = (eps + 1.0) * np.eye(2)
    cross = np.array([[eps * g1, -eps * g2], [eps * g2, eps * g1]])
    return np.block([[diag, cross], [cross.T, diag]])


def tmsv_block_reference(params: TmsvParams) -> np.ndarray:
    """The np.block construction the direct fill replaced; kept as the reference."""
    n = params.n_bar
    diag = (2.0 * n + 1.0) * np.eye(2)
    c, s = math.cos(params.theta), math.sin(params.theta)
    cross = 2.0 * math.sqrt(n * (n + 1.0)) * np.array([[c, s], [s, -c]])
    return np.block([[diag, cross], [cross, diag]])


def random_source(rng) -> SourceParams:
    phase = rng.uniform(0, 2 * np.pi)
    mag = math.sqrt(rng.uniform(0, 1))
    return SourceParams(rng.uniform(1e-4, 1.0), mag * math.cos(phase), mag * math.sin(phase))


class TestSourceParams:
    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValidationError, match="epsilon must be > 0"):
            SourceParams(0.0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError, match="epsilon"):
            SourceParams(-0.1)

    def test_coherence_above_unit_disk_rejected(self):
        with pytest.raises(ValidationError, match=r"\|g\| <= 1"):
            SourceParams(0.1, 0.9, 0.9)

    def test_boundary_coherence_allowed(self):
        params = SourceParams(0.1, 1.0, 0.0)
        assert (params.g1, params.g2) == (1.0, 0.0)

    def test_parsing_slack_on_boundary(self):
        SourceParams(0.1, 1.0 + 1e-13, 0.0)  # within round-off slack

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            SourceParams(float("nan"))

    @pytest.mark.parametrize("epsilon", [1.3e154, 1e200, 1e308])
    def test_overflowing_epsilon_rejected_naming_epsilon(self, epsilon):
        with pytest.raises(ValidationError, match=r"^epsilon = .* is too large"):
            SourceParams(epsilon)

    def test_overflow_threshold_sits_where_eps_squared_terms_overflow(self, largest_epsilon):
        assert 6e153 < largest_epsilon < 1.35e154
        with pytest.raises(ValidationError, match="epsilon = .* is too large"):
            SourceParams(math.nextafter(largest_epsilon, math.inf))

    @pytest.mark.parametrize("epsilon", [1e-160, 1e-170, 5e-324])
    def test_underflowing_epsilon_rejected_naming_epsilon(self, epsilon):
        with pytest.raises(ValidationError, match=r"^epsilon = .* is too small"):
            SourceParams(epsilon)

    def test_underflow_threshold_sits_where_eps_squared_turns_subnormal(self, smallest_epsilon):
        assert smallest_epsilon**2 >= sys.float_info.min
        assert 1.49e-154 < smallest_epsilon < 1.5e-154
        too_small = math.nextafter(smallest_epsilon, 0.0)
        with pytest.raises(ValidationError, match="epsilon = .* is too small"):
            SourceParams(too_small)
        for which in (LIMIT_ZERO, LIMIT_INFINITY):
            with pytest.raises(ValidationError, match="epsilon = .* is too small"):
                fisher_limit_closed_form(too_small, 0.5, 0.0, which)

    @pytest.mark.parametrize("g", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.0)])
    def test_smallest_accepted_epsilon_gives_nonzero_fisher_limits(self, smallest_epsilon, g):
        for which in (LIMIT_ZERO, LIMIT_INFINITY):
            assert fisher_limit_closed_form(smallest_epsilon, *g, which).trace_norm > 0.0

    @pytest.mark.parametrize("g", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.0)])
    def test_largest_accepted_epsilon_stays_finite(self, largest_epsilon, g):
        # RuntimeWarnings are errors in this suite, so no overflow may happen on the way
        params = SourceParams(largest_epsilon, *g)
        assert np.isfinite(astronomical_covariance(params).entries).all()
        for which in (LIMIT_ZERO, LIMIT_INFINITY):
            entries = fisher_limit_closed_form(largest_epsilon, *g, which).entries
            assert np.isfinite(entries).all()


class TestTmsvParams:
    def test_negative_n_bar_rejected(self):
        with pytest.raises(ValidationError, match="n_bar"):
            TmsvParams(-1e-3)

    def test_theta_reduced_mod_two_pi(self):
        params = TmsvParams(1.0, 2 * np.pi + 0.5)
        assert math.isclose(params.theta, 0.5, rel_tol=1e-12)

    @pytest.mark.parametrize("r", [0.01, 0.25, 1.0, 2.0])
    def test_r_round_trip(self, r):
        params = TmsvParams.from_r(r)
        assert math.isclose(params.r, r, rel_tol=1e-12)
        back = TmsvParams(n_bar=params.n_bar)
        assert math.isclose(back.n_bar, math.sinh(r) ** 2, rel_tol=1e-12)

    def test_zero_squeezing(self):
        assert TmsvParams(0.0).r == 0.0

    @pytest.mark.parametrize("n_bar", [1e200, 1.4e154, 1e308])
    def test_overflowing_n_bar_rejected_naming_n_bar(self, n_bar):
        with pytest.raises(ValidationError, match="n_bar"):
            TmsvParams(n_bar)

    def test_largest_finite_covariance_accepted(self):
        params = TmsvParams(1e150, 0.3)
        assert np.isfinite(tmsv_covariance_closed(params).entries).all()

    @pytest.mark.parametrize("r", [200.0, 400.0, 1e4])
    def test_overflowing_r_rejected_naming_r(self, r):
        with pytest.raises(ValidationError, match="squeezing magnitude r"):
            TmsvParams.from_r(r)


class TestAstronomicalCovariance:
    def test_zero_coherence_is_scaled_identity(self):
        v = astronomical_covariance(SourceParams(0.2, 0.0, 0.0))
        np.testing.assert_allclose(v.entries, 1.2 * np.eye(4), rtol=0, atol=0)

    def test_small_epsilon_approaches_vacuum(self):
        v = astronomical_covariance(SourceParams(1e-12, 0.5, 0.5))
        np.testing.assert_allclose(v.entries, np.eye(4), rtol=0, atol=1e-11)

    def test_unit_coherence_cross_block_and_physicality(self):
        v = astronomical_covariance(SourceParams(0.1, 1.0, 0.0))
        np.testing.assert_allclose(v.entries[:2, 2:], 0.1 * np.eye(2), rtol=0, atol=0)
        assert check_physicality(v).min_eigenvalue >= -1e-9

    def test_ordering(self):
        v = astronomical_covariance(SourceParams(0.1))
        assert v.names == ("x_A1", "p_A1", "x_B1", "p_B1")

    def test_moment_identities_exact(self):
        # the covariance equals exactly twice the single-operator moment matrix
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(100):
            params = random_source(rng)
            eps, g1, g2 = params.epsilon, params.g1, params.g2
            xx = (eps + 1.0) / 2.0          # <x_a^2> = <p_a^2>
            xaxb = (eps / 2.0) * g1         # <x_a x_b> = <p_a p_b>
            xbpa = (eps / 2.0) * g2         # <x_b p_a> = -<p_b x_a>
            moments = np.array(
                [
                    [xx, 0.0, xaxb, -xbpa],
                    [0.0, xx, xbpa, xaxb],
                    [xaxb, xbpa, xx, 0.0],
                    [-xbpa, xaxb, 0.0, xx],
                ]
            )
            assert np.array_equal(astronomical_covariance(params).entries, 2.0 * moments)


class TestTmsvCovariance:
    def test_zero_squeezing_is_vacuum(self):
        for theta in (0.0, 1.0, 5.0):
            v = tmsv_covariance_closed(TmsvParams(0.0, theta))
            assert np.array_equal(v.entries, np.eye(4))

    def test_unit_photon_theta_zero(self):
        v = tmsv_covariance_closed(TmsvParams(1.0, 0.0))
        off = 2.0 * math.sqrt(2.0)
        expected = np.array(
            [
                [3.0, 0.0, off, 0.0],
                [0.0, 3.0, 0.0, -off],
                [off, 0.0, 3.0, 0.0],
                [0.0, -off, 0.0, 3.0],
            ]
        )
        np.testing.assert_allclose(v.entries, expected, rtol=0, atol=1e-15)

    def test_unit_photon_theta_half_pi(self):
        v = tmsv_covariance_closed(TmsvParams(1.0, np.pi / 2))
        off = 2.0 * math.sqrt(2.0)
        cross = v.entries[:2, 2:]
        np.testing.assert_allclose(cross, off * np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)

    def test_ordering(self):
        v = tmsv_covariance_closed(TmsvParams(1.0))
        assert v.names == ("x_A2", "p_A2", "x_B2", "p_B2")

    def test_exponential_zero_squeezing(self):
        v = tmsv_covariance_exponential(TmsvParams(0.0, 0.3))
        assert np.array_equal(v.entries, np.eye(4))

    def test_exponential_matches_closed_at_unit_photon(self):
        closed = tmsv_covariance_closed(TmsvParams(1.0, 0.0))
        exponential = tmsv_covariance_exponential(TmsvParams(1.0, 0.0))
        np.testing.assert_allclose(exponential.entries, closed.entries, rtol=0, atol=1e-12)

    def test_dual_construction_grid(self):
        worst = 0.0
        for r in R_GRID:
            for theta in THETA_GRID:
                params = TmsvParams.from_r(r, theta)
                gap = np.max(
                    np.abs(
                        tmsv_covariance_closed(params).entries
                        - tmsv_covariance_exponential(params).entries
                    )
                )
                worst = max(worst, gap)
        assert worst <= 1e-10

    def test_purity_saturates_uncertainty(self):
        for r in R_GRID:
            for theta in THETA_GRID[::2]:
                report = check_physicality(tmsv_covariance_closed(TmsvParams.from_r(r, theta)))
                assert -1e-9 <= report.min_eigenvalue <= 1e-6


class TestRandomizedPhysicality:
    def test_both_constructors_produce_physical_states(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(1000):
            src = astronomical_covariance(random_source(rng))
            assert check_physicality(src).passed
            res = tmsv_covariance_closed(TmsvParams(rng.uniform(0, 10), rng.uniform(0, 2 * np.pi)))
            assert check_physicality(res).passed


class TestVacuumHelper:
    def test_identity(self):
        v = vacuum_covariance("A1", "B1", "C1")
        assert np.array_equal(v.entries, np.eye(6))


class TestDirectFill:
    """The direct 4x4 fill gives the bits of the np.block construction it replaced."""

    def test_astronomical_bitwise_equal_to_block_reference(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        for _ in range(500):
            params = random_source(rng)
            got = astronomical_covariance(params).entries
            assert got.tobytes() == astronomical_block_reference(params).tobytes()

    def test_tmsv_bitwise_equal_to_block_reference(self):
        rng = np.random.default_rng(RNG_SEED + 8)
        for _ in range(500):
            params = TmsvParams(10.0 ** rng.uniform(-6.0, 4.0), rng.uniform(0.0, 2 * np.pi))
            got = tmsv_covariance_closed(params).entries
            assert got.tobytes() == tmsv_block_reference(params).tobytes()

    @pytest.mark.parametrize("g1, g2", [(0.0, 0.0), (-0.0, -0.0), (1.0, 0.0), (0.0, -1.0)])
    def test_signed_zeros_match(self, g1, g2):
        params = SourceParams(0.3, g1, g2)
        got = astronomical_covariance(params).entries
        assert got.tobytes() == astronomical_block_reference(params).tobytes()

    @pytest.mark.parametrize("n_bar", [0.0, 1.0])
    def test_tmsv_zero_and_unit_photon_match(self, n_bar):
        params = TmsvParams(n_bar, 0.0)
        got = tmsv_covariance_closed(params).entries
        assert got.tobytes() == tmsv_block_reference(params).tobytes()
