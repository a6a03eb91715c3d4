"""Tests for the covariance-matrix substrate."""

import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from cvlbi.core import (
    CovarianceMatrix,
    NumericalError,
    QuadratureOrdering,
    ValidationError,
    apply_symplectic,
    check_physicality,
    direct_sum,
    gaussian_log_pdf,
    matrix_exponential,
    permute_modes,
    reduce,
    symplectic_form,
)
from cvlbi.states import SourceParams, TmsvParams, astronomical_covariance, vacuum_covariance

RNG_SEED = 20240611


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def two_mode_squeezer(r, theta):
    ch, sh = math.cosh(r), math.sinh(r)
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [ch, 0.0, c * sh, s * sh],
            [0.0, ch, s * sh, -c * sh],
            [c * sh, s * sh, ch, 0.0],
            [s * sh, -c * sh, 0.0, ch],
        ]
    )


def balanced_beam_splitter():
    return np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
    ) / math.sqrt(2.0)


def random_symplectic(rng):
    """Product of squeezers, beam splitters, and phase rotations on two modes."""
    s = np.eye(4)
    for _ in range(rng.integers(1, 5)):
        kind = rng.integers(0, 3)
        if kind == 0:
            s = two_mode_squeezer(rng.uniform(0, 1.0), rng.uniform(0, 2 * np.pi)) @ s
        elif kind == 1:
            s = balanced_beam_splitter() @ s
        else:
            phi = rng.uniform(0, 2 * np.pi)
            rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            block = np.eye(4)
            mode = rng.integers(0, 2)
            block[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = rot
            s = block @ s
    return s


class TestOrdering:
    def test_interleaved_names(self):
        ordering = QuadratureOrdering.interleaved("A1", "B1")
        assert ordering.names == ("x_A1", "p_A1", "x_B1", "p_B1")
        assert ordering.n_modes == 2 and not ordering.reduced

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            QuadratureOrdering((("A1", "x"), ("A1", "x")), reduced=True)

    def test_full_ordering_needs_both_quadratrues(self):
        with pytest.raises(ValidationError):
            QuadratureOrdering((("A1", "x"), ("B1", "x")))

    def test_reduced_selection_allows_subsets(self):
        sel = QuadratureOrdering.selection(["x_A1", "p_A2"])
        assert sel.reduced and sel.dim == 2

    def test_string_labels_normalized(self):
        assert QuadratureOrdering(("x_A1", "p_A1")).labels == (("A1", "x"), ("A1", "p"))


class TestSymplecticForm:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_antisymmetric_and_squares_to_minus_identity(self, n):
        omega = symplectic_form(n)
        assert np.array_equal(omega, -omega.T)
        assert np.array_equal(omega @ omega, -np.eye(2 * n))


class TestOrderingIndex:
    def test_index_matches_label_position(self):
        ordering = QuadratureOrdering.interleaved("A1", "B1", "A2", "B2")
        for slot, (mode, quad) in enumerate(ordering.labels):
            assert ordering.index((mode, quad)) == slot
            assert ordering.index(f"{quad}_{mode}") == slot

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError, match="not in ordering"):
            QuadratureOrdering.interleaved("A1").index("x_B1")


class TestSymplecticFormCache:
    def test_read_only(self):
        omega = symplectic_form(2)
        with pytest.raises(ValueError):
            omega[0, 1] = 5.0
        assert not omega.flags.writeable

    def test_repeated_calls_agree(self):
        first = symplectic_form(3).copy()
        assert np.array_equal(symplectic_form(3), first)

    def test_non_positive_mode_count_rejected_every_time(self):
        for _ in range(2):
            with pytest.raises(ValidationError, match="n_modes"):
                symplectic_form(0)


class TestCovarianceMatrix:
    def test_rejects_asymmetric(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-6
        with pytest.raises(ValidationError):
            CovarianceMatrix(QuadratureOrdering.interleaved("A1", "B1"), bad)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            CovarianceMatrix(QuadratureOrdering.interleaved("A1"), np.eye(4))

    def test_entries_read_only(self):
        v = vacuum_covariance("A1")
        with pytest.raises(ValueError):
            v.entries[0, 0] = 2.0


class TestDirectSum:
    def test_vacuum_plus_vacuum(self):
        v = direct_sum(vacuum_covariance("A1", "B1"), vacuum_covariance("A2", "B2"))
        assert np.array_equal(v.entries, np.eye(8))
        assert v.ordering.names[:2] == ("x_A1", "p_A1")

    def test_thermal_plus_vacuum_block_structure(self):
        v_rho = astronomical_covariance(SourceParams(0.1, 0.0, 0.0))
        v = direct_sum(v_rho, vacuum_covariance("A2", "B2"))
        expected = np.eye(8)
        expected[:4, :4] = np.diag([1.1, 1.1, 1.1, 1.1])
        np.testing.assert_allclose(v.entries, expected, rtol=0, atol=1e-15)

    def test_mode_collision_rejected(self):
        with pytest.raises(ValidationError, match="A1"):
            direct_sum(vacuum_covariance("A1"), vacuum_covariance("A1"))


class TestPermuteModes:
    def test_identity_permutation(self):
        v = vacuum_covariance("A1", "B1")
        out = permute_modes(v, v.ordering)
        assert np.array_equal(out.entries, v.entries)

    def test_swap_blocks(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        v = CovarianceMatrix(QuadratureOrdering.interleaved("A1", "B1"), a)
        swapped = permute_modes(v, QuadratureOrdering.interleaved("B1", "A1"))
        assert np.array_equal(swapped.entries, np.diag([3.0, 4.0, 1.0, 2.0]))

    def test_round_trip_exact(self):
        rng = np.random.default_rng(RNG_SEED)
        source = QuadratureOrdering.interleaved("A1", "B1", "A2", "B2")
        for _ in range(50):
            v = CovarianceMatrix(source, random_symmetric(rng, 8))
            modes = list(source.modes)
            rng.shuffle(modes)
            target = QuadratureOrdering.interleaved(*modes)
            back = permute_modes(permute_modes(v, target), source)
            assert np.array_equal(back.entries, v.entries)

    def test_non_permutation_rejected(self):
        v = vacuum_covariance("A1", "B1")
        with pytest.raises(ValidationError):
            permute_modes(v, QuadratureOrdering.interleaved("A1", "C1"))


class TestRearrangementsInheritValidation:
    """direct_sum, permute_modes and reduce skip re-validation of what they copy."""

    @staticmethod
    def inputs(rng):
        v1 = CovarianceMatrix(QuadratureOrdering.interleaved("A1", "B1"), random_symmetric(rng, 4))
        v2 = CovarianceMatrix(QuadratureOrdering.interleaved("A2", "B2"), random_symmetric(rng, 4))
        return v1, v2

    @staticmethod
    def assert_fresh_read_only(out, *sources):
        assert not out.entries.flags.writeable
        with pytest.raises(ValueError):
            out.entries[0, 0] = 1.0
        for source in sources:
            assert not np.shares_memory(out.entries, source.entries)

    def test_results_read_only_and_share_no_memory(self):
        rng = np.random.default_rng(RNG_SEED + 11)
        target = QuadratureOrdering.interleaved("A1", "A2", "B1", "B2")
        for _ in range(20):
            v1, v2 = self.inputs(rng)
            product = direct_sum(v1, v2)
            self.assert_fresh_read_only(product, v1, v2)
            paired = permute_modes(product, target)
            self.assert_fresh_read_only(paired, product)
            same = permute_modes(product, product.ordering)
            self.assert_fresh_read_only(same, product)
            reduced = reduce(paired, ["x_A1", "p_A2", "x_B1", "p_B2"])
            self.assert_fresh_read_only(reduced, paired)

    def test_result_orderings_equal_freshly_validated_ones(self):
        rng = np.random.default_rng(RNG_SEED + 12)
        v1, v2 = self.inputs(rng)
        product = direct_sum(v1, v2)
        assert product.ordering == QuadratureOrdering(v1.ordering.labels + v2.ordering.labels)
        target = QuadratureOrdering.interleaved("B2", "A1", "B1", "A2")
        assert permute_modes(product, target).ordering == target
        keep = ["p_B2", ("A1", "x"), "x_A2"]
        reduced = reduce(product, keep)
        assert reduced.ordering == QuadratureOrdering.selection(keep)
        assert reduced.ordering.reduced
        partial = direct_sum(reduced, vacuum_covariance("C1"))
        assert partial.ordering == QuadratureOrdering(
            reduced.ordering.labels + (("C1", "x"), ("C1", "p")), reduced=True
        )

    def test_entries_equal_plain_indexing(self):
        rng = np.random.default_rng(RNG_SEED + 13)
        v1, v2 = self.inputs(rng)
        product = direct_sum(v1, v2)
        expected = np.zeros((8, 8))
        expected[:4, :4], expected[4:, 4:] = v1.entries, v2.entries
        assert product.entries.tobytes() == expected.tobytes()
        target = QuadratureOrdering.interleaved("A1", "A2", "B1", "B2")
        perm = [product.ordering.labels.index(lbl) for lbl in target.labels]
        expected = product.entries[perm][:, perm]
        assert permute_modes(product, target).entries.tobytes() == expected.tobytes()

    def test_rejections_repeat_on_every_call(self):
        rng = np.random.default_rng(RNG_SEED + 14)
        v1, _ = self.inputs(rng)
        for _ in range(2):
            with pytest.raises(ValidationError, match="collide"):
                direct_sum(v1, v1)
            with pytest.raises(ValidationError, match="permutation"):
                permute_modes(v1, QuadratureOrdering.interleaved("A1", "C1"))
            with pytest.raises(ValidationError, match="duplicate"):
                reduce(v1, ["x_A1", "x_A1"])
            with pytest.raises(ValidationError, match="not in ordering"):
                reduce(v1, ["x_C1"])


class TestApplySymplectic:
    def test_identity(self):
        v = vacuum_covariance("A1", "B1")
        assert np.array_equal(apply_symplectic(v, np.eye(4)).entries, np.eye(4))

    def test_beam_splitter_preserves_vacuum(self):
        out = apply_symplectic(vacuum_covariance("A1", "B1"), balanced_beam_splitter())
        np.testing.assert_allclose(out.entries, np.eye(4), rtol=0, atol=1e-15)

    def test_squeezer_on_vacuum_gives_closed_form(self):
        n_bar, theta = 1.0, 0.0
        r = 0.5 * math.acosh(2 * n_bar + 1)
        out = apply_symplectic(vacuum_covariance("A1", "B1"), two_mode_squeezer(r, theta))
        off = 2.0 * math.sqrt(n_bar * (n_bar + 1))
        expected = np.array(
            [
                [3.0, 0.0, off, 0.0],
                [0.0, 3.0, 0.0, -off],
                [off, 0.0, 3.0, 0.0],
                [0.0, -off, 0.0, 3.0],
            ]
        )
        np.testing.assert_allclose(out.entries, expected, rtol=0, atol=1e-12)

    def test_non_symplectic_rejected_with_residual(self):
        v = vacuum_covariance("A1", "B1")
        with pytest.raises(ValidationError, match="Omega"):
            apply_symplectic(v, 2.0 * np.eye(4))

    def test_rejects_after_accepting_with_the_cached_form(self):
        v = vacuum_covariance("A1", "B1")
        apply_symplectic(v, balanced_beam_splitter())
        near = balanced_beam_splitter()
        near[0, 0] += 1e-6
        with pytest.raises(ValidationError, match="not symplectic"):
            apply_symplectic(v, near)

    def test_symmetry_and_physicality_preserved(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(200):
            s = random_symplectic(rng)
            v = apply_symplectic(vacuum_covariance("A1", "B1"), s)
            assert np.array_equal(v.entries, v.entries.T)
            assert check_physicality(v).min_eigenvalue >= -1e-9

    def test_determinant_preserved(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        base = astronomical_covariance(SourceParams(0.3, 0.2, -0.4))
        for _ in range(100):
            s = random_symplectic(rng)
            out = apply_symplectic(base, s)
            np.testing.assert_allclose(
                np.linalg.det(out.entries), np.linalg.det(base.entries), rtol=1e-9
            )


class TestMatrixExponential:
    def test_exp_zero_is_identity_exactly(self):
        assert np.array_equal(matrix_exponential(np.zeros((4, 4))), np.eye(4))

    def test_squeezer_generator_r_one(self):
        gen = np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, -1.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(
            matrix_exponential(gen), two_mode_squeezer(1.0, 0.0), rtol=0, atol=1e-12
        )

    def test_diagonal_oracle(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(20):
            a = rng.uniform(-3, 3, size=5)
            np.testing.assert_allclose(
                matrix_exponential(np.diag(a)), np.diag(np.exp(a)), rtol=1e-12
            )

    def test_against_scaling_squaring_reference(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = rng.standard_normal((n, n)) * 10 ** rng.uniform(-3, 1)
            mine, ref = matrix_exponential(a), scipy_expm(a)
            np.testing.assert_allclose(mine, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))

    def test_generator_grid_matches_closed_form(self):
        worst = 0.0
        for r in np.arange(0.0, 2.25, 0.25):
            for theta in np.arange(0.0, 2 * np.pi, np.pi / 4):
                c, s = r * math.cos(theta), r * math.sin(theta)
                gen = np.array(
                    [
                        [0.0, 0.0, c, s],
                        [0.0, 0.0, s, -c],
                        [c, s, 0.0, 0.0],
                        [s, -c, 0.0, 0.0],
                    ]
                )
                diff = np.max(np.abs(matrix_exponential(gen) - two_mode_squeezer(r, theta)))
                worst = max(worst, diff)
        assert worst <= 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            matrix_exponential(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            matrix_exponential(np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestReduce:
    def test_keep_all_unchanged(self):
        v = vacuum_covariance("A1", "B1")
        assert reduce(v, v.ordering.labels) is v

    def test_single_label(self):
        v = astronomical_covariance(SourceParams(0.4, 0.1, 0.0))
        out = reduce(v, ["p_B1"])
        assert out.ordering.reduced and out.entries.shape == (1, 1)
        assert out.entries[0, 0] == v.entries[3, 3]

    def test_reduce_commutes_with_permutation(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        source = QuadratureOrdering.interleaved("A1", "B1", "A2", "B2")
        for _ in range(50):
            v = CovarianceMatrix(source, random_symmetric(rng, 8))
            target = QuadratureOrdering.interleaved("B1", "A2", "A1", "B2")
            permuted = permute_modes(v, target)
            n_keep = int(rng.integers(1, 9))
            keep_idx = rng.choice(8, size=n_keep, replace=False)
            keep = [target.labels[i] for i in keep_idx]
            direct = reduce(permuted, keep)
            expected = v.entries[np.ix_(
                [source.index(lbl) for lbl in keep], [source.index(lbl) for lbl in keep]
            )]
            assert np.array_equal(direct.entries, expected)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            reduce(vacuum_covariance("A1"), ["x_Z9"])


class TestGaussianLogPdf:
    def test_standard_normal_at_origin(self):
        v = vacuum_covariance("A1", "B1")
        assert math.isclose(
            gaussian_log_pdf(v, np.zeros((1, 4)))[0], -2.0 * math.log(2.0 * math.pi), rel_tol=1e-14
        )

    def test_standard_normal_unit_point(self):
        v = vacuum_covariance("A1", "B1")
        expected = -2.0 * math.log(2.0 * math.pi) - 0.5
        log_p = gaussian_log_pdf(v, np.array([[1.0, 0, 0, 0]]))[0]
        assert math.isclose(log_p, expected, rel_tol=1e-14)

    def test_monte_carlo_normalization(self):
        # importance sampling against an independently normalized proposal
        from cvlbi.interferometer import InterferometerConfig, reduced_covariance_closed

        cfg = InterferometerConfig.from_values(0.1, 0.3, 0.2, n_bar=1.0, theta=0.0)
        v_r = reduced_covariance_closed(cfg)
        alpha = 1.5
        chol_q = np.linalg.cholesky(alpha * v_r.entries)
        rng = np.random.default_rng(RNG_SEED + 6)
        z = rng.standard_normal((200_000, 4))
        x = z @ chol_q.T
        log_p = gaussian_log_pdf(v_r, x)
        log_q = (
            -0.5 * np.sum(z * z, axis=1)
            - np.sum(np.log(np.diag(chol_q)))
            - 2.0 * math.log(2.0 * math.pi)
        )
        integral = float(np.mean(np.exp(log_p - log_q)))
        assert abs(integral - 1.0) <= 0.01

    def test_singular_rejected(self):
        entries = np.diag([1.0, 1.0, 1.0, 1e-14])
        v = CovarianceMatrix(QuadratureOrdering.selection(["x_A1", "p_A2", "x_B1", "p_B2"]), entries)
        with pytest.raises(NumericalError, match="condition"):
            gaussian_log_pdf(v, np.zeros((1, 4)))

    def test_non_positive_definite_rejected(self):
        entries = np.diag([1.0, 1.0, 1.0, -1.0])
        v = CovarianceMatrix(QuadratureOrdering.selection(["x_A1", "p_A2", "x_B1", "p_B2"]), entries)
        with pytest.raises(NumericalError, match="positive definite"):
            gaussian_log_pdf(v, np.zeros((1, 4)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_log_pdf(vacuum_covariance("A1"), np.zeros((1, 4)))


class TestCheckPhysicality:
    def test_vacuum_saturates(self):
        report = check_physicality(vacuum_covariance("A1", "B1"))
        assert report.passed and abs(report.min_eigenvalue) <= 1e-12

    def test_pure_squeezed_state_saturates(self):
        from cvlbi.states import tmsv_covariance_closed

        report = check_physicality(tmsv_covariance_closed(TmsvParams(1.0, 0.0)))
        assert report.passed
        assert -1e-9 <= report.min_eigenvalue <= 1e-6

    def test_sub_vacuum_fails(self):
        v = CovarianceMatrix(QuadratureOrdering.interleaved("A1", "B1"), 0.5 * np.eye(4))
        report = check_physicality(v)
        assert not report.passed

    def test_reduced_rejected(self):
        v = CovarianceMatrix(QuadratureOrdering.selection(["x_A1", "p_A2"]), np.eye(2))
        with pytest.raises(ValidationError):
            check_physicality(v)
