"""Tests for the covariance-matrix substrate."""

import math

import numpy as np
import pytest
from oracles import gaussian_log_pdf, vacuum_covariance
from scipy.linalg import expm as scipy_expm

from cvlbi.core import (
    CovarianceMatrix,
    NumericalError,
    ValidationError,
    _check_positive_definite,
    _indices,
    _is_full,
    apply_symplectic,
    check_physicality,
    direct_sum,
    interleaved,
    matrix_exponential,
    permute_modes,
    reduce,
    symplectic_form,
)
from cvlbi.interferometer import MEASURED_ORDERING, InterferometerConfig, full_output_covariance
from cvlbi.states import SourceParams, TmsvParams, astronomical_covariance

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
        names = interleaved("A1", "B1")
        assert names == ("x_A1", "p_A1", "x_B1", "p_B1")
        assert _is_full(names)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            CovarianceMatrix(("x_A1", "x_A1"), np.eye(2))

    def test_full_ordering_needs_both_quadratrues(self):
        assert not _is_full(("x_A1", "x_B1"))
        with pytest.raises(ValidationError):
            check_physicality(CovarianceMatrix(("x_A1", "x_B1"), np.eye(2)))

    def test_reduced_selection_allows_subsets(self):
        sel = CovarianceMatrix(("x_A1", "p_A2"), np.eye(2))
        assert sel.dim == 2 and not _is_full(sel.names)

    @pytest.mark.parametrize(
        "names",
        [
            ("x_A1", "x_B1", "p_A1", "p_B1"),  # xxpp
            ("p_A1", "x_A1", "x_B1", "p_B1"),  # p before x
            ("x_A1", "p_B1", "x_B1", "p_A1"),  # modes split
            ("x_A1", "p_A1", "x_B1"),  # a half mode
        ],
    )
    def test_only_whole_interleaved_modes_are_full(self, names):
        assert not _is_full(names)

    @pytest.mark.parametrize("name", [("A1", "x"), "y_A1", "x_", "xA1", "", 1])
    def test_malformed_names_rejected(self, name):
        with pytest.raises(ValidationError, match="malformed"):
            CovarianceMatrix((name,), np.eye(1))


class TestSymplecticForm:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_antisymmetric_and_squares_to_minus_identity(self, n):
        omega = symplectic_form(n)
        assert np.array_equal(omega, -omega.T)
        assert np.array_equal(omega @ omega, -np.eye(2 * n))


class TestOrderingIndex:
    def test_index_matches_label_position(self):
        names = interleaved("A1", "B1", "A2", "B2")
        for slot, name in enumerate(names):
            rows, cols = _indices(names, [name])
            assert rows.tolist() == [[slot]] and cols.tolist() == [[slot]]

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError, match="'x_B1' not in"):
            _indices(interleaved("A1"), ["p_A1", "x_B1", "x_C1"])


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
            CovarianceMatrix(interleaved("A1", "B1"), bad)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            CovarianceMatrix(interleaved("A1"), np.eye(4))

    def test_entries_read_only(self):
        v = vacuum_covariance("A1")
        with pytest.raises(ValueError):
            v.entries[0, 0] = 2.0


class TestDirectSum:
    def test_vacuum_plus_vacuum(self):
        v = direct_sum(vacuum_covariance("A1", "B1"), vacuum_covariance("A2", "B2"))
        assert np.array_equal(v.entries, np.eye(8))
        assert v.names[:2] == ("x_A1", "p_A1")

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
        out = permute_modes(v, v.names)
        assert np.array_equal(out.entries, v.entries)

    def test_swap_blocks(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        v = CovarianceMatrix(interleaved("A1", "B1"), a)
        swapped = permute_modes(v, interleaved("B1", "A1"))
        assert np.array_equal(swapped.entries, np.diag([3.0, 4.0, 1.0, 2.0]))

    def test_round_trip_exact(self):
        rng = np.random.default_rng(RNG_SEED)
        source = interleaved("A1", "B1", "A2", "B2")
        for _ in range(50):
            v = CovarianceMatrix(source, random_symmetric(rng, 8))
            modes = ["A1", "B1", "A2", "B2"]
            rng.shuffle(modes)
            target = interleaved(*modes)
            back = permute_modes(permute_modes(v, target), source)
            assert np.array_equal(back.entries, v.entries)

    def test_non_permutation_rejected(self):
        v = vacuum_covariance("A1", "B1")
        with pytest.raises(ValidationError):
            permute_modes(v, interleaved("A1", "C1"))


class TestRearrangementsInheritValidation:
    """direct_sum, permute_modes and reduce skip re-validation of what they copy."""

    @staticmethod
    def inputs(rng):
        v1 = CovarianceMatrix(interleaved("A1", "B1"), random_symmetric(rng, 4))
        v2 = CovarianceMatrix(interleaved("A2", "B2"), random_symmetric(rng, 4))
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
        target = interleaved("A1", "A2", "B1", "B2")
        for _ in range(20):
            v1, v2 = self.inputs(rng)
            product = direct_sum(v1, v2)
            self.assert_fresh_read_only(product, v1, v2)
            paired = permute_modes(product, target)
            self.assert_fresh_read_only(paired, product)
            same = permute_modes(product, product.names)
            self.assert_fresh_read_only(same, product)
            reduced = reduce(paired, ["x_A1", "p_A2", "x_B1", "p_B2"])
            self.assert_fresh_read_only(reduced, paired)

    def test_result_orderings_equal_freshly_validated_ones(self):
        rng = np.random.default_rng(RNG_SEED + 12)
        v1, v2 = self.inputs(rng)
        product = direct_sum(v1, v2)
        assert product.names == CovarianceMatrix(v1.names + v2.names, np.eye(8)).names
        assert _is_full(product.names)
        target = interleaved("B2", "A1", "B1", "A2")
        assert permute_modes(product, target).names == target
        keep = ["p_B2", "x_A1", "x_A2"]
        reduced = reduce(product, keep)
        assert reduced.names == tuple(keep) and not _is_full(reduced.names)
        partial = direct_sum(reduced, vacuum_covariance("C1"))
        assert partial.names == (*keep, "x_C1", "p_C1") and not _is_full(partial.names)

    def test_entries_equal_plain_indexing(self):
        rng = np.random.default_rng(RNG_SEED + 13)
        v1, v2 = self.inputs(rng)
        product = direct_sum(v1, v2)
        expected = np.zeros((8, 8))
        expected[:4, :4], expected[4:, 4:] = v1.entries, v2.entries
        assert product.entries.tobytes() == expected.tobytes()
        target = interleaved("A1", "A2", "B1", "B2")
        perm = [product.names.index(name) for name in target]
        expected = product.entries[perm][:, perm]
        assert permute_modes(product, target).entries.tobytes() == expected.tobytes()

    def test_rejections_repeat_on_every_call(self):
        rng = np.random.default_rng(RNG_SEED + 14)
        v1, _ = self.inputs(rng)
        for _ in range(2):
            with pytest.raises(ValidationError, match="collide"):
                direct_sum(v1, v1)
            with pytest.raises(ValidationError, match="'x_C1' not in"):
                permute_modes(v1, interleaved("A1", "C1"))
            with pytest.raises(ValidationError, match="permutation"):
                permute_modes(v1, interleaved("A1"))
            with pytest.raises(ValidationError, match="duplicate"):
                reduce(v1, ["x_A1", "x_A1"])
            with pytest.raises(ValidationError, match="'x_C1' not in"):
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
        assert reduce(v, v.names) is v

    def test_single_label(self):
        v = astronomical_covariance(SourceParams(0.4, 0.1, 0.0))
        out = reduce(v, ["p_B1"])
        assert out.names == ("p_B1",) and out.entries.shape == (1, 1)
        assert out.entries[0, 0] == v.entries[3, 3]

    def test_reduce_commutes_with_permutation(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        source = interleaved("A1", "B1", "A2", "B2")
        for _ in range(50):
            v = CovarianceMatrix(source, random_symmetric(rng, 8))
            target = interleaved("B1", "A2", "A1", "B2")
            permuted = permute_modes(v, target)
            n_keep = int(rng.integers(1, 9))
            keep_idx = rng.choice(8, size=n_keep, replace=False)
            keep = [target[i] for i in keep_idx]
            direct = reduce(permuted, keep)
            slots = [source.index(name) for name in keep]
            expected = v.entries[np.ix_(slots, slots)]
            assert np.array_equal(direct.entries, expected)

    def test_unknown_label_rejected(self):
        for keep in (["x_Z9"], [("A1", "x")], [["A1", "x"]]):
            with pytest.raises(ValidationError, match="not in"):
                reduce(vacuum_covariance("A1"), keep)


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
        v = CovarianceMatrix(MEASURED_ORDERING, entries)
        with pytest.raises(NumericalError, match="condition"):
            gaussian_log_pdf(v, np.zeros((1, 4)))

    def test_non_positive_definite_rejected(self):
        entries = np.diag([1.0, 1.0, 1.0, -1.0])
        v = CovarianceMatrix(MEASURED_ORDERING, entries)
        with pytest.raises(NumericalError, match="positive definite"):
            gaussian_log_pdf(v, np.zeros((1, 4)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_log_pdf(vacuum_covariance("A1"), np.zeros((1, 4)))


class TestCheckPositiveDefinite:
    """A non-positive smallest eigenvalue is singular at float resolution, indefinite beyond."""

    @pytest.mark.parametrize("scale, low", [(1.0, 0.0), (1.0, -1e-17), (1e150, -1e134)])
    def test_zero_at_resolution_is_numerically_singular(self, scale, low):
        entries = np.diag([scale, scale, scale, low])
        singular = r"^m is numerically singular \(condition number inf"
        with pytest.raises(NumericalError, match=singular):
            _check_positive_definite(entries, "m")

    @pytest.mark.parametrize("low", [-1e-3, -1e-12])
    def test_clearly_negative_is_not_positive_definite(self, low):
        with pytest.raises(NumericalError, match="m is not positive definite"):
            _check_positive_definite(np.diag([1.0, 1.0, 1.0, low]), "m")


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
        v = CovarianceMatrix(interleaved("A1", "B1"), 0.5 * np.eye(4))
        report = check_physicality(v)
        assert not report.passed

    def test_reduced_rejected(self):
        v = CovarianceMatrix(("x_A1", "p_A2"), np.eye(2))
        with pytest.raises(ValidationError):
            check_physicality(v)

    def test_only_whole_interleaved_modes_have_the_form(self):
        """Omega is block-diagonal only on whole modes in xp-interleaved order.

        A squeezed A1 in (x_A1, x_B1, p_A1, p_B1) order would read as unphysical
        against that Omega, so the check and the transform reject the order; the
        marginal over whole interleaved modes is a full state and passes.
        """
        r = 0.5
        squeezed = np.diag([math.exp(2 * r), math.exp(-2 * r), 1.0, 1.0])
        v = CovarianceMatrix(interleaved("A1", "B1"), squeezed)
        assert check_physicality(v).passed
        xxpp = permute_modes(v, ("x_A1", "x_B1", "p_A1", "p_B1"))
        with pytest.raises(ValidationError, match="interleaved"):
            check_physicality(xxpp)
        with pytest.raises(ValidationError, match="interleaved"):
            apply_symplectic(xxpp, np.eye(4))
        cfg = InterferometerConfig.from_values(0.3, 0.2, -0.5, n_bar=3.0, theta=1.0)
        marginal = reduce(full_output_covariance(cfg), interleaved("A1", "A2"))
        assert check_physicality(marginal).passed
