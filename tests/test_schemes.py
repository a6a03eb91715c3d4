"""Tests for the cross-scheme cumulative comparison and its emission formats."""

import itertools
import math
import sys

import numpy as np
import pytest
from oracles import published_bound

from cvlbi.core import ValidationError
from cvlbi.schemes import (
    CSV_HEADER,
    DEFAULT_GRID_MAX,
    DEFAULT_GRID_MIN,
    DEFAULT_GRID_POINTS,
    MODE_EXACT,
    MODE_LOWEST_ORDER,
    SMALL_EPS_RANKING,
    SchemeCurve,
    SchemeId,
    cumulative_curves,
    curves_from_csv,
    curves_to_csv,
    ordering_report,
    pairwise_crossings,
)

#: the grid ``cvlbi compare`` runs on by default
DEFAULT_GRID = np.geomspace(DEFAULT_GRID_MIN, DEFAULT_GRID_MAX, DEFAULT_GRID_POINTS)


class TestRateFactor:
    """Every scheme accumulates at the bandwidth delta_nu, checked once per call."""

    @pytest.mark.parametrize("delta_nu", [1.0, 2.5, 1e300])
    def test_every_point_is_delta_nu_times_single_shot_bound(self, delta_nu):
        grid = np.unique(np.concatenate([DEFAULT_GRID, np.geomspace(1e-12, 1.0, 1001)]))
        for curve in cumulative_curves(grid, delta_nu):
            expected = [delta_nu * published_bound(curve.scheme.value, e) for e in grid.tolist()]
            assert curve.bounds.tolist() == expected
        for entry in ordering_report(grid, delta_nu)["entries"]:
            ranked = [
                {delta_nu * published_bound(s, entry["epsilon"]) for s in group}
                for group in entry["ranking"]
            ]
            assert all(len(values) == 1 for values in ranked)  # ties are equal values
            levels = [values.pop() for values in ranked]
            assert levels == sorted(set(levels), reverse=True)  # strictly descending

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_equal_bandwidth_for_all_schemes(self, scheme):
        grid = [0.1, 0.5]
        for delta_nu in (1.0, 1e9):
            (curve,) = [c for c in cumulative_curves(grid, delta_nu) if c.scheme is scheme]
            expected = [delta_nu * published_bound(scheme.value, e) for e in grid]
            assert curve.bounds.tolist() == expected
            report = ordering_report(grid, delta_nu)
            assert report["delta_nu"] == delta_nu
            assert report["entries"] == ordering_report(grid, 1.0)["entries"]

    def test_nonpositive_bandwidth_rejected(self):
        for grid, delta_nu in itertools.product(([0.1], []), (0.0, -1.0, math.nan)):
            with pytest.raises(ValidationError, match="^delta_nu must be > 0$"):
                cumulative_curves(grid, delta_nu)
            with pytest.raises(ValidationError, match="^delta_nu must be > 0$"):
                ordering_report(grid, delta_nu)

    @pytest.mark.parametrize("delta_nu", [1e308, math.inf])
    def test_bandwidth_whose_bounds_overflow_rejected(self, delta_nu):
        for grid in ([0.1], []):
            with pytest.raises(ValidationError, match=r"^delta_nu = .* is too large"):
                cumulative_curves(grid, delta_nu)
            with pytest.raises(ValidationError, match=r"^delta_nu = .* is too large"):
                ordering_report(grid, delta_nu)

    def test_largest_bandwidth_keeps_every_bound_finite(self):
        # the largest delta_nu with 2 delta_nu finite; the exact CV norms stay below 2
        delta_nu = sys.float_info.max / 2.0
        grid = [1e-3, 0.5, 1.0]
        assert ordering_report(grid, delta_nu)["delta_nu"] == delta_nu
        for exact_cv in (False, True):
            curves = cumulative_curves(grid, delta_nu, exact_cv, g1=0.9, g2=0.1)
            assert all(np.isfinite(curve.bounds).all() for curve in curves)
        too_large = math.nextafter(delta_nu, math.inf)
        with pytest.raises(ValidationError, match="delta_nu"):
            cumulative_curves(grid, too_large)
        with pytest.raises(ValidationError, match="delta_nu"):
            ordering_report(grid, too_large)

    def test_bandwidth_checked_after_grid_and_coherence(self):
        with pytest.raises(ValidationError, match="eps grid"):
            cumulative_curves([0.2, 0.1], -1.0)
        with pytest.raises(ValidationError, match="eps grid"):
            ordering_report([0.2, 0.1], -1.0)
        with pytest.raises(ValidationError, match="need finite g"):
            cumulative_curves([0.1], -1.0, g1=2.0)


class TestSingleShotBound:
    """One eps's bounds, read from ``cumulative_curves([eps])``, against the published values."""

    @pytest.mark.parametrize(
        "scheme,eps,expected",
        [
            (SchemeId.DD, 0.01, 0.01),
            (SchemeId.CV_INF, 0.01, 2e-4),
            (SchemeId.GJC12, 0.5, 0.25),
            (SchemeId.CV_0, 0.1, 0.01),
            (SchemeId.LOCAL, 0.1, 0.01),
        ],
    )
    def test_reference_values(self, scheme, eps, expected):
        (bound,) = [c.points[0][1] for c in cumulative_curves([eps]) if c.scheme is scheme]
        assert bound == published_bound(scheme.value, eps)
        assert math.isclose(bound, expected, rel_tol=1e-15)

    def test_cv_ratio_is_two_everywhere(self):
        bounds = {c.scheme: c.bounds for c in cumulative_curves(np.geomspace(1e-4, 1.0, 50))}
        assert (bounds[SchemeId.CV_INF] / bounds[SchemeId.CV_0]).tolist() == [2.0] * 50


class TestCumulativeCurves:
    def test_values_at_tenth(self):
        curves = {c.scheme: c for c in cumulative_curves([0.1], delta_nu=1.0)}
        assert math.isclose(curves[SchemeId.DD].points[0][1], 0.1, rel_tol=1e-15)
        assert math.isclose(curves[SchemeId.GJC12].points[0][1], 0.05, rel_tol=1e-15)
        assert math.isclose(curves[SchemeId.CV_INF].points[0][1], 0.02, rel_tol=1e-15)
        assert math.isclose(curves[SchemeId.CV_0].points[0][1], 0.01, rel_tol=1e-15)
        assert math.isclose(curves[SchemeId.LOCAL].points[0][1], 0.01, rel_tol=1e-15)

    def test_bandwidth_scales_linearly(self):
        base = cumulative_curves([0.01, 0.1], delta_nu=1.0)
        scaled = cumulative_curves([0.01, 0.1], delta_nu=1e9)
        for b, s in zip(base, scaled):
            np.testing.assert_allclose(s.bounds, 1e9 * b.bounds, rtol=1e-15)

    def test_bounds_vanish_with_eps(self):
        curves = cumulative_curves(np.geomspace(1e-12, 1e-9, 4))
        for curve in curves:
            assert np.all(curve.bounds > 0.0) and curve.bounds[0] < 1e-9

    def test_default_grid_shape(self):
        assert (DEFAULT_GRID_MIN, DEFAULT_GRID_MAX, DEFAULT_GRID_POINTS) == (1e-4, 1.0, 200)
        assert DEFAULT_GRID[0] == 1e-4 and DEFAULT_GRID[-1] == 1.0
        curves = cumulative_curves(DEFAULT_GRID)
        assert len(curves) == 5 and all(len(c.points) == 200 for c in curves)

    @pytest.mark.parametrize("exact_cv", [False, True])
    @pytest.mark.parametrize("g", [(math.nan, 0.0), (0.0, math.inf), (0.9, 0.9)])
    def test_coherence_checked_in_either_mode(self, exact_cv, g):
        with pytest.raises(ValidationError, match=r"need finite g with \|g\| <= 1"):
            cumulative_curves([0.01, 0.1], exact_cv=exact_cv, g1=g[0], g2=g[1])

    def test_exact_mode_tags_cv_only(self):
        curves = cumulative_curves([0.01], exact_cv=True)
        modes = {c.scheme: c.mode for c in curves}
        assert modes[SchemeId.CV_INF] == MODE_EXACT
        assert modes[SchemeId.CV_0] == MODE_EXACT
        assert modes[SchemeId.DD] == MODE_LOWEST_ORDER

    def test_exact_within_first_order_window_of_lowest(self):
        grid = np.geomspace(1e-4, 0.1, 40)
        lowest = {c.scheme: c.bounds for c in cumulative_curves(grid)}
        exact = {c.scheme: c.bounds for c in cumulative_curves(grid, exact_cv=True)}
        for scheme in (SchemeId.CV_INF, SchemeId.CV_0):
            ratio = exact[scheme] / lowest[scheme]
            assert np.all(np.abs(ratio - 1.0) <= 10.0 * grid)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValidationError):
            cumulative_curves([0.2, 0.1])
        with pytest.raises(ValidationError):
            cumulative_curves([0.0, 0.1])
        with pytest.raises(ValidationError):
            cumulative_curves([-0.1])
        with pytest.raises(ValidationError):
            cumulative_curves([0.5, 1.5])

    def test_curve_validation(self):
        with pytest.raises(ValidationError):
            SchemeCurve(SchemeId.DD, ((0.1, -1.0),))
        with pytest.raises(ValidationError, match="epsilons"):
            SchemeCurve(SchemeId.DD, ((math.nan, 0.1),))
        with pytest.raises(ValidationError, match="epsilons"):
            SchemeCurve(SchemeId.DD, ((0.1, 0.1), (math.nan, 0.2)))
        with pytest.raises(ValidationError, match="epsilons"):
            SchemeCurve(SchemeId.DD, ((0.1, 0.1), (math.inf, 0.2)))
        with pytest.raises(ValidationError, match="bounds"):
            SchemeCurve(SchemeId.DD, ((0.1, math.nan),))
        with pytest.raises(ValidationError, match="bounds"):
            SchemeCurve(SchemeId.DD, ((0.1, math.inf),))
        with pytest.raises(ValidationError, match="mode 'whatever'"):
            SchemeCurve(SchemeId.DD, ((0.1, 0.1),), mode="whatever")
        with pytest.raises(ValidationError, match=r"epsilons .* within \(0, 1\]"):
            SchemeCurve(SchemeId.DD, ((0.1, 0.1), (5.0, 5.0)))
        with pytest.raises(ValidationError, match="unknown scheme 'DD'; expected a SchemeId member"):
            SchemeCurve("DD", ((0.1, 0.1),))
        SchemeCurve(SchemeId.DD, ((0.1, 0.1), (1.0, 1.0)))

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_only_schemes_with_exact_values_take_exact_mode(self, scheme):
        curve = ((0.1, 0.01),)
        if scheme in (SchemeId.CV_INF, SchemeId.CV_0):
            assert SchemeCurve(scheme, curve, MODE_EXACT).mode == MODE_EXACT
        else:
            with pytest.raises(ValidationError, match=f"SchemeId.{scheme.value} has no exact"):
                SchemeCurve(scheme, curve, MODE_EXACT)


class TestOrderingReport:
    def test_small_eps_ranking(self):
        report = ordering_report([0.1])
        entry = report["entries"][0]
        assert entry["ranking"] == [["DD"], ["GJC12"], ["CV_INF"], ["CV_0", "LOCAL"]]
        assert entry["matches_small_eps_ordering"]
        assert SMALL_EPS_RANKING == entry["ranking"]

    def test_beyond_crossover(self):
        report = ordering_report([0.3])
        ranking = report["entries"][0]["ranking"]
        flat = [s for group in ranking for s in group]
        assert flat.index("CV_INF") < flat.index("GJC12")  # 0.18 > 0.15
        assert not report["entries"][0]["matches_small_eps_ordering"]

    def test_empty_grid_gives_empty_report(self):
        report = ordering_report([])
        assert report["entries"] == [] and report["crossings"] == []

    def test_crossings(self):
        crossings = pairwise_crossings(0.0, 1.0)
        found = {(tuple(c["schemes"]), c["epsilon"]) for c in crossings}
        assert (("CV_INF", "GJC12"), 0.25) in found
        assert (("CV_INF", "DD"), 0.5) in found
        assert (("CV_0", "GJC12"), 0.5) in found

    def test_crossover_is_exact_quarter(self):
        for c in pairwise_crossings(0.0, 1.0):
            if set(c["schemes"]) == {"CV_INF", "GJC12"}:
                assert c["epsilon"] == 0.25
                return
        raise AssertionError("crossover not reported")

    def test_report_crossings_limited_to_grid_span(self):
        report = ordering_report([0.01, 0.1])
        assert report["crossings"] == []

    def test_coincident_pair_tagged(self):
        report = ordering_report([0.1])
        assert ["CV_0", "LOCAL"] in report["coincident"]

    def test_ordering_invariant_below_crossover(self):
        grid = np.geomspace(1e-4, 0.2499, 60)
        report = ordering_report(grid)
        assert all(e["matches_small_eps_ordering"] for e in report["entries"])


class TestCsvEmission:
    def test_header_and_shape(self):
        text = curves_to_csv(cumulative_curves(DEFAULT_GRID))
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 5 * 200

    def test_row_values(self):
        text = curves_to_csv(cumulative_curves([0.1]))
        rows = [line.split(",") for line in text.splitlines()[1:]]
        by_scheme = {row[1]: row for row in rows}
        assert by_scheme["DD"] == ["0.1", "DD", "0.1", "lowest-order"]
        assert by_scheme["CV_INF"][2] == "0.02"

    def test_round_trip_byte_identical(self):
        original = curves_to_csv(cumulative_curves(DEFAULT_GRID, delta_nu=2.5))
        reparsed = curves_to_csv(curves_from_csv(original))
        assert reparsed == original

    def test_round_trip_exact_mode(self):
        original = curves_to_csv(cumulative_curves(np.geomspace(1e-3, 0.5, 17), exact_cv=True))
        assert curves_to_csv(curves_from_csv(original)) == original

    def test_bad_header_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            curves_from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize(
        "row",
        [
            "0.1,DD",
            "0.1,X,0.1,lowest-order",
            "0.1,DD,abc,lowest-order",
            "nan,DD,nan,lowest-order",
            "0.1,DD,inf,whatever",
            "0.1,DD,0.1,whatever",
            "5,DD,5,lowest-order",
            "0.1,DD,0.1,exact",
        ],
        ids=[
            "short-row", "unknown-scheme", "non-number", "nan", "inf", "unknown-mode",
            "eps-above-one", "exact-without-exact-values",
        ],
    )
    def test_malformed_row_rejected_naming_its_line(self, row):
        text = "epsilon,scheme,bound,mode\n0.05,DD,0.05,lowest-order\n" + row + "\n"
        with pytest.raises(ValidationError, match="^CSV line 3: "):
            curves_from_csv(text)
