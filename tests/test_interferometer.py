"""Tests for the beam-splitter pipeline and the measured covariance."""

import math

import numpy as np
import pytest

from cvlbi.core import symplectic_form
from cvlbi.interferometer import (
    InterferometerConfig,
    MEASURED_ORDERING,
    MeasuredModel,
    OUTPUT_ORDERING,
    PRODUCT_ORDERING,
    PRODUCT_TO_OUTPUT_PERMUTATION,
    _TWO_SITE_BEAM_SPLITTER,
    abbreviations,
    beam_splitter_matrix,
    full_output_covariance,
    full_output_covariance_closed,
    reduced_covariance,
    reduced_covariance_closed,
)
from cvlbi.states import SourceParams, TmsvParams

RNG_SEED = 5200


def random_config(rng) -> InterferometerConfig:
    phase = rng.uniform(0, 2 * np.pi)
    mag = math.sqrt(rng.uniform(0, 1))
    return InterferometerConfig(
        SourceParams(rng.uniform(1e-4, 1.0), mag * math.cos(phase), mag * math.sin(phase)),
        TmsvParams(rng.uniform(0, 10), rng.uniform(0, 2 * np.pi)),
    )


class TestBeamSplitter:
    def test_orthogonal(self):
        r = beam_splitter_matrix()
        np.testing.assert_allclose(r @ r.T, np.eye(4), rtol=0, atol=1e-15)

    def test_symplectic(self):
        r = beam_splitter_matrix()
        omega = symplectic_form(2)
        np.testing.assert_allclose(r @ omega @ r.T, omega, rtol=0, atol=1e-15)

    def test_square_is_mode_swap_with_sign(self):
        r = beam_splitter_matrix()
        expected = np.zeros((4, 4))
        expected[:2, 2:] = np.eye(2)
        expected[2:, :2] = -np.eye(2)
        np.testing.assert_allclose(r @ r, expected, rtol=0, atol=1e-15)

    def test_entries_pattern(self):
        r = beam_splitter_matrix() * math.sqrt(2.0)
        expected = np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1]], dtype=float
        )
        assert np.array_equal(r, expected)


class TestOrderingPlumbing:
    def test_permutation_constant_maps_product_to_output(self):
        for out_slot, product_slot in enumerate(PRODUCT_TO_OUTPUT_PERMUTATION):
            assert OUTPUT_ORDERING.labels[out_slot] == PRODUCT_ORDERING.labels[product_slot]

    def test_measured_labels(self):
        assert MEASURED_ORDERING.names == ("x_A1", "p_A2", "x_B1", "p_B2")
        assert MEASURED_ORDERING.reduced


class TestFullOutputCovariance:
    def test_vacuum_in_vacuum_out(self):
        cfg = InterferometerConfig.from_values(1e-12, 0.0, 0.0, n_bar=0.0)
        np.testing.assert_allclose(
            full_output_covariance(cfg).entries, np.eye(8), rtol=0, atol=1e-9
        )

    def test_site_block_values(self):
        cfg = InterferometerConfig.from_values(0.1, 0.5, 0.0, n_bar=1.0, theta=0.0)
        v = full_output_covariance(cfg).entries
        # site-diagonal block: (a + b)/2 on the diagonal, (-a + b)/2 off
        assert math.isclose(v[0, 0], 2.05, rel_tol=1e-14)
        assert math.isclose(v[0, 2], 0.95, rel_tol=1e-14)
        assert math.isclose(v[4, 4], 2.05, rel_tol=1e-14)
        assert math.isclose(v[4, 6], 0.95, rel_tol=1e-14)

    def test_pipeline_matches_closed_blocks(self):
        rng = np.random.default_rng(RNG_SEED)
        worst = 0.0
        for _ in range(1000):
            cfg = random_config(rng)
            gap = np.max(
                np.abs(
                    full_output_covariance(cfg).entries
                    - full_output_covariance_closed(cfg).entries
                )
            )
            worst = max(worst, gap)
        assert worst <= 1e-12

    def test_two_site_beam_splitter_constant_read_only(self):
        with pytest.raises(ValueError):
            _TWO_SITE_BEAM_SPLITTER[0, 0] = 1.0
        expected = np.zeros((8, 8))
        expected[:4, :4] = expected[4:, 4:] = beam_splitter_matrix()
        assert _TWO_SITE_BEAM_SPLITTER.tobytes() == expected.tobytes()

    def test_output_physical(self):
        from cvlbi.core import check_physicality

        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(200):
            assert check_physicality(full_output_covariance(random_config(rng))).passed


class TestReducedCovariance:
    def test_reference_values(self):
        cfg = InterferometerConfig.from_values(0.1, 0.5, 0.0, n_bar=1.0, theta=0.0)
        state = reduced_covariance(cfg)
        v = state.v_r.entries
        d = 2.0 * math.sqrt(2.0)
        assert math.isclose(v[0, 0], 2.05, rel_tol=1e-14)
        assert math.isclose(v[0, 2], (0.05 + d) / 2.0, rel_tol=1e-12)  # ~1.4392136
        assert v[0, 3] == 0.0
        assert math.isclose(v[1, 3], (0.05 - d) / 2.0, rel_tol=1e-12)  # ~-1.3892136
        assert (state.a, state.b, state.c) == (1.1, 3.0, 0.1 * 0.5)

    def test_zero_squeezing_pattern(self):
        cfg = InterferometerConfig.from_values(0.2, 1.0, 0.0, n_bar=0.0, theta=1.3)
        v = reduced_covariance_closed(cfg).entries
        expected = 0.5 * np.array(
            [
                [2.2, 0.0, 0.2, 0.0],
                [0.0, 2.2, 0.0, 0.2],
                [0.2, 0.0, 2.2, 0.0],
                [0.0, 0.2, 0.0, 2.2],
            ]
        )
        np.testing.assert_allclose(v, expected, rtol=0, atol=1e-15)

    def test_diagonal_is_mean_of_a_and_b(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(50):
            cfg = random_config(rng)
            a, b, *_ = abbreviations(cfg)
            v = reduced_covariance_closed(cfg).entries
            np.testing.assert_allclose(np.diag(v), (a + b) / 2.0, rtol=1e-14)

    def test_dual_path_equality(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        worst = 0.0
        for _ in range(1000):
            worst = max(worst, reduced_covariance(random_config(rng)).pipeline_gap)
        assert worst <= 1e-12

    def test_routes_share_no_array(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(20):
            cfg = random_config(rng)
            state = reduced_covariance(cfg)
            pipeline = state.v_r_pipeline.entries
            assert not pipeline.flags.writeable
            for other in (state.v_r.entries, cfg.model.v0, cfg.model.d1, cfg.model.d2):
                assert not np.shares_memory(pipeline, other)

    def test_positive_definite(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(200):
            v = reduced_covariance_closed(random_config(rng)).entries
            np.linalg.cholesky(v)  # raises if not positive definite
            assert np.linalg.det(v) > 0.0


class TestMeasuredModel:
    def test_linear_in_coherence_against_pipeline(self):
        # one model per (eps, n_bar, theta) reproduces the pipeline at any coherence
        rng = np.random.default_rng(RNG_SEED + 5)
        worst = 0.0
        for _ in range(200):
            cfg = random_config(rng)
            src = cfg.source
            model = InterferometerConfig.from_values(
                src.epsilon, n_bar=cfg.resource.n_bar, theta=cfg.resource.theta
            ).model
            pipeline = reduced_covariance(cfg).v_r_pipeline.entries
            gap = np.max(np.abs(model.covariance(src.g1, src.g2) - pipeline))
            worst = max(worst, gap / max(1.0, float(np.max(np.abs(pipeline)))))
        assert worst <= 1e-12

    def test_closed_form_is_the_model(self):
        cfg = InterferometerConfig.from_values(0.3, -0.4, 0.5, n_bar=2.0, theta=4.0)
        expected = cfg.model.v0 - 0.4 * cfg.model.d1 + 0.5 * cfg.model.d2
        assert np.array_equal(reduced_covariance_closed(cfg).entries, expected)

    def test_built_once_per_config(self):
        cfg = InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0)
        assert cfg.model is cfg.model
        assert isinstance(cfg.model, MeasuredModel)

    def test_arrays_read_only(self):
        model = MeasuredModel.from_config(InterferometerConfig.from_values(0.1))
        for array in (model.v0, model.d1, model.d2):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0


class TestSymmetries:
    """Structural identities of the measured covariance.

    Swapping the telescope sites conjugates the coherence and leaves the
    squeezing phase alone; conjugating the phase as well additionally requires
    flipping the sign of both measured momenta.
    """

    @staticmethod
    def _v(g2, theta):
        cfg = InterferometerConfig.from_values(0.2, 0.3, g2, n_bar=1.5, theta=theta)
        return reduced_covariance_closed(cfg).entries

    def test_site_swap_conjugates_coherence(self):
        swap = [2, 3, 0, 1]  # x_A1 <-> x_B1, p_A2 <-> p_B2
        for g2, theta in ((0.4, 0.9), (-0.2, 4.0), (0.0, 2.2)):
            v = self._v(g2, theta)
            np.testing.assert_allclose(
                v[np.ix_(swap, swap)], self._v(-g2, theta), rtol=0, atol=1e-15
            )

    def test_momentum_flip_conjugates_coherence_and_phase(self):
        flip = np.diag([1.0, -1.0, 1.0, -1.0])
        for g2, theta in ((0.4, 0.9), (-0.2, 4.0)):
            v = self._v(g2, theta)
            np.testing.assert_allclose(flip @ v @ flip, self._v(-g2, -theta), rtol=0, atol=1e-15)

    def test_site_swap_at_sin_theta_zero(self):
        # at sin(theta) = 0 the two conjugations coincide
        swap = [2, 3, 0, 1]
        v = self._v(0.4, 0.0)
        np.testing.assert_allclose(v[np.ix_(swap, swap)], self._v(-0.4, -0.0), rtol=0, atol=0)
