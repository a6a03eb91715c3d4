"""Tests for the beam-splitter pipeline and the measured covariance."""

import math
import sys

import numpy as np
import pytest
from oracles import full_output_covariance_closed

from cvlbi import core, estimate, fisher
from cvlbi.core import (
    CovarianceMatrix,
    apply_symplectic,
    direct_sum,
    permute_modes,
    reduce,
    symplectic_form,
)
from cvlbi.interferometer import (
    InterferometerConfig,
    MEASURED_ORDERING,
    OUTPUT_ORDERING,
    _MEASURED,
    _PAIRED,
    _TWO_SITE_BEAM_SPLITTER,
    abbreviations,
    beam_splitter_matrix,
    full_output_covariance,
    reduced_covariance,
    reduced_covariance_closed,
)
from cvlbi.states import (
    G_NORM_SLACK,
    TWO_PI,
    SourceParams,
    TmsvParams,
    astronomical_covariance,
    tmsv_covariance_closed,
)

RNG_SEED = 5200

#: the largest n_bar TmsvParams accepts: n_bar (n_bar + 1) is still finite
LARGEST_N_BAR = math.sqrt(sys.float_info.max)
#: |g|^2 = 1 + G_NORM_SLACK, the edge of the accepted disk
EDGE_G = math.sqrt(1.0 + G_NORM_SLACK)


def random_config(rng) -> InterferometerConfig:
    phase = rng.uniform(0, 2 * np.pi)
    mag = math.sqrt(rng.uniform(0, 1))
    return InterferometerConfig(
        SourceParams(rng.uniform(1e-4, 1.0), mag * math.cos(phase), mag * math.sin(phase)),
        TmsvParams(rng.uniform(0, 10), rng.uniform(0, 2 * np.pi)),
    )


def wide_config(rng) -> InterferometerConfig:
    """eps log-uniform on [1e-6, 1], g uniform on the disk, n_bar log-uniform on [1e-6, 1e8]."""
    phase = rng.uniform(0, 2 * np.pi)
    mag = math.sqrt(rng.uniform(0, 1))
    return InterferometerConfig.from_values(
        10.0 ** rng.uniform(-6, 0), mag * math.cos(phase), mag * math.sin(phase),
        n_bar=10.0 ** rng.uniform(-6, 8), theta=rng.uniform(0, 2 * np.pi),
    )


@pytest.fixture(scope="module")
def corner_configs(smallest_epsilon, largest_epsilon) -> list[InterferometerConfig]:
    """Every combination of the edges of the parameter space, with interior values."""
    coherences = ((0.0, 0.0), (EDGE_G, 0.0), (0.0, -EDGE_G), (-EDGE_G, 0.0))
    return [
        InterferometerConfig.from_values(eps, g1, g2, n_bar=n_bar, theta=theta)
        for eps in (smallest_epsilon, 1e-100, 1e-6, 1.0, 1e100, largest_epsilon)
        for g1, g2 in coherences
        for n_bar in (0.0, 1e-300, 1.0, LARGEST_N_BAR)
        for theta in (0.0, 1.0, math.nextafter(TWO_PI, 0.0))
    ]


def assert_label_algebra_bits(cfg: InterferometerConfig) -> None:
    """The pipeline's full and measured covariances equal the general label algebra's."""
    product = direct_sum(astronomical_covariance(cfg.source), tmsv_covariance_closed(cfg.resource))
    full = apply_symplectic(permute_modes(product, OUTPUT_ORDERING), _TWO_SITE_BEAM_SPLITTER)
    state = reduced_covariance(cfg)
    for fast, oracle in ((state.v_full, full), (state.v_r_pipeline, reduce(full, MEASURED_ORDERING))):
        assert fast.entries.tobytes() == oracle.entries.tobytes()
        assert fast.names == oracle.names


class TestLabelAlgebraOracle:
    """The pipeline on index arrays derived at import reproduces the label algebra bit for bit."""

    def test_random_configs(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        for _ in range(1000):
            assert_label_algebra_bits(wide_config(rng))

    def test_corners(self, corner_configs):
        for cfg in corner_configs:
            assert_label_algebra_bits(cfg)


class TestCornerMatrices:
    """What the dropped re-checks held, pinned over the edges of the parameter space."""

    def test_corners_sit_on_the_edges(self):
        TmsvParams(LARGEST_N_BAR)
        with pytest.raises(core.ValidationError):
            TmsvParams(math.nextafter(LARGEST_N_BAR, math.inf))
        SourceParams(1.0, EDGE_G, 0.0)
        with pytest.raises(core.ValidationError):
            SourceParams(1.0, math.sqrt(1.0 + 2.0 * G_NORM_SLACK), 0.0)

    def test_finite_symmetric_read_only_and_valid(self, corner_configs):
        for cfg in corner_configs:
            for v in (
                astronomical_covariance(cfg.source),
                tmsv_covariance_closed(cfg.resource),
                reduced_covariance_closed(cfg),
                full_output_covariance(cfg),
            ):
                m = v.entries
                assert np.isfinite(m).all()
                assert np.array_equal(m, m.T)
                assert not m.flags.writeable
                CovarianceMatrix(v.names, m)


def counting(original, calls: list):
    """``original``, appending the positional arguments of each call to ``calls``."""

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    return counted


def count_calls(monkeypatch, home, name: str) -> list:
    """Count calls of ``home.name`` from every cvlbi module that holds it."""
    calls = []
    original = getattr(home, name)
    counted = counting(original, calls)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "cvlbi" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_path_work_count(monkeypatch):
    """One config through state plus fisher: no validating covariance, no general
    symplectic transform, exactly one check of V_r, one V_r formed and one solve."""
    validations = []
    post_init = CovarianceMatrix.__post_init__

    def counted_post_init(self):
        validations.append(self)
        post_init(self)

    monkeypatch.setattr(CovarianceMatrix, "__post_init__", counted_post_init)
    transforms = count_calls(monkeypatch, core, "apply_symplectic")
    checks = count_calls(monkeypatch, core, "_check_positive_definite")
    formed, solves = [], []
    monkeypatch.setattr(
        InterferometerConfig, "covariance", counting(InterferometerConfig.covariance, formed)
    )
    monkeypatch.setattr(np.linalg, "solve", counting(np.linalg.solve, solves))

    eps, g1, g2 = 0.1, 0.3, 0.2
    cfg = InterferometerConfig.from_values(eps, g1, g2, n_bar=1.0, theta=0.5)
    assert reduced_covariance(cfg).pipeline_gap <= 1e-12
    fisher.fisher_analytic(cfg)
    fisher.fisher_limit_closed_form(eps, g1, g2, fisher.LIMIT_ZERO)
    fisher.fisher_limit_closed_form(eps, g1, g2, fisher.LIMIT_INFINITY)
    assert (len(validations), len(transforms), len(checks)) == (0, 0, 1)
    assert (len(formed), len(solves)) == (1, 1)


def test_one_factorisation_of_v_r_per_config(monkeypatch):
    """Records, the CRB experiment, scores and the Monte Carlo Fisher of one config
    share one Cholesky factor of its V_r."""
    calls = []
    monkeypatch.setattr(np.linalg, "cholesky", counting(np.linalg.cholesky, calls))
    cfg = InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0, theta=0.5)
    record = estimate.sample_records(cfg, 100, seed=0)
    estimate.sample_records(cfg, 100, seed=1)
    estimate.crb_experiment(cfg, 100, estimate.MIN_REPLICATIONS, seed=0)
    fisher.score_vectors(cfg, record.outcomes)
    fisher.fisher_monte_carlo(cfg, fisher.MIN_MC_SAMPLES, seed=0)
    # the MLE factors V_r at its trial points as stacks, one n x 4 x 4 array a call
    factored = [a for (a,) in calls if np.ndim(a) == 2]
    assert len(factored) == 1 and factored[0] is cfg.measured_covariance


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
    def test_measured_labels(self):
        assert MEASURED_ORDERING == ("x_A1", "p_A2", "x_B1", "p_B2")
        assert not core._is_full(MEASURED_ORDERING) and core._is_full(OUTPUT_ORDERING)


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

    def test_two_site_beam_splitter_symplectic_and_orthogonal(self):
        # checked here once, not by the pipeline on every call
        s = _TWO_SITE_BEAM_SPLITTER
        omega = symplectic_form(4)
        np.testing.assert_allclose(s @ omega @ s.T, omega, rtol=0, atol=1e-15)
        np.testing.assert_allclose(s @ s.T, np.eye(8), rtol=0, atol=1e-15)

    def test_two_site_beam_splitter_constant_read_only(self):
        with pytest.raises(ValueError):
            _TWO_SITE_BEAM_SPLITTER[0, 0] = 1.0
        expected = np.zeros((8, 8))
        expected[:4, :4] = expected[4:, 4:] = beam_splitter_matrix()
        assert _TWO_SITE_BEAM_SPLITTER.tobytes() == expected.tobytes()

    def test_flat_gather_equals_block_assembly_bits(self):
        # the reference route: zeros, the two input blocks, then the np.ix_ permutation
        rng = np.random.default_rng(RNG_SEED + 8)
        for _ in range(1000):
            cfg = wide_config(rng)
            product = np.zeros((8, 8))
            product[:4, :4] = astronomical_covariance(cfg.source).entries
            product[4:, 4:] = tmsv_covariance_closed(cfg.resource).entries
            out = _TWO_SITE_BEAM_SPLITTER @ product[_PAIRED] @ _TWO_SITE_BEAM_SPLITTER.T
            full = full_output_covariance(cfg).entries
            assert full.tobytes() == ((out + out.T) / 2.0).tobytes()
            measured = reduced_covariance(cfg).v_r_pipeline.entries
            assert measured.tobytes() == full[_MEASURED].tobytes()

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
        assert abbreviations(cfg)[:3] == (1.1, 3.0, 0.1 * 0.5)

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
            for other in (state.v_r.entries, cfg.v0, cfg.d[0], cfg.d[1]):
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
            )
            pipeline = reduced_covariance(cfg).v_r_pipeline.entries
            gap = np.max(np.abs(model.covariance(src.g1, src.g2) - pipeline))
            worst = max(worst, gap / max(1.0, float(np.max(np.abs(pipeline)))))
        assert worst <= 1e-12

    def test_closed_form_is_the_model(self):
        cfg = InterferometerConfig.from_values(0.3, -0.4, 0.5, n_bar=2.0, theta=4.0)
        expected = cfg.v0 - 0.4 * cfg.d[0] + 0.5 * cfg.d[1]
        assert np.array_equal(reduced_covariance_closed(cfg).entries, expected)

    def test_built_once_per_config(self):
        cfg = InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0)
        assert cfg.v0 is cfg.v0
        assert cfg.cholesky is cfg.cholesky

    def test_arrays_read_only(self):
        cfg = InterferometerConfig.from_values(0.1)
        for array in (cfg.v0, cfg.d, cfg.cholesky):
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
