"""Cross-scheme comparison of cumulative Fisher information per unit time.

Five measurement schemes are compared through lower bounds on the trace norm of
their Fisher information, accumulated at the rate measurements can be performed.
All schemes are granted the same spectral bandwidth (the impartiality assumption).
Homodyne readout is unconditional, and the photon-counting schemes discard
identifiable failures without losing channel uses, so every scheme accumulates
measurements at the rate delta_nu and its cumulative bound is delta_nu times its
single-shot bound:

    CV_INF : 2 eps^2      homodyne readout of the squeezed-resource scheme, high squeezing
    CV_0   : eps^2        same layout with a vacuum resource
    DD     : eps          direct detection
    LOCAL  : eps^2        separate local measurements plus classical communication
    GJC12  : eps / 2      distributed-single-photon scheme

The DD, LOCAL, and GJC12 values are imported constants from the published
single-photon analyses; they are not re-derived here. Only CV_INF and CV_0 have
exact values: the finite-eps trace norms of the closed-form limit matrices, which
"exact" mode puts in place of their lowest-order bounds to quantify the
truncation. No curve of another scheme can be tagged "exact". Above eps = sqrt(3) - 1
the lowest-order CV_INF value exceeds the source's quantum Fisher trace, 4 eps / (2 + eps)
at g = 0, which no measurement can reach.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError
from .fisher import LIMIT_INFINITY, LIMIT_ZERO, fisher_limit_closed_form
from .serialize import csv_dumps
from .states import _check_disk

MODE_LOWEST_ORDER = "lowest-order"
MODE_EXACT = "exact"

CSV_HEADER = ("epsilon", "scheme", "bound", "mode")

#: default grid: 200 logarithmic points spanning the comparison range and the crossover
DEFAULT_GRID_MIN = 1e-4
DEFAULT_GRID_MAX = 1.0
DEFAULT_GRID_POINTS = 200


class SchemeId(enum.Enum):
    """The compared measurement schemes."""

    CV_INF = "CV_INF"
    CV_0 = "CV_0"
    DD = "DD"
    LOCAL = "LOCAL"
    GJC12 = "GJC12"


#: lowest-order single-shot trace-norm bound, as (coefficient, power of eps)
_BOUND_COEFF_POWER = {
    SchemeId.CV_INF: (2.0, 2),
    SchemeId.CV_0: (1.0, 2),
    SchemeId.DD: (1.0, 1),
    SchemeId.LOCAL: (1.0, 2),
    SchemeId.GJC12: (0.5, 1),
}

#: the schemes with exact values, and the limit of the homodyne Fisher matrix each one takes
_EXACT_LIMIT = {SchemeId.CV_INF: LIMIT_INFINITY, SchemeId.CV_0: LIMIT_ZERO}

#: schemes whose bounds coincide at lowest order
COINCIDENT_SCHEMES = (SchemeId.CV_0, SchemeId.LOCAL)


@dataclass(frozen=True, eq=False)
class SchemeCurve:
    """Cumulative Fisher lower bound versus eps for one scheme."""

    scheme: SchemeId
    points: tuple
    mode: str = MODE_LOWEST_ORDER

    def __post_init__(self):
        if not isinstance(self.scheme, SchemeId):
            raise ValidationError(f"unknown scheme {self.scheme!r}; expected a SchemeId member")
        _validate_grid([p[0] for p in self.points], "curve epsilons")
        bounds = np.array([p[1] for p in self.points], dtype=float)
        if not (np.all(np.isfinite(bounds)) and np.all(bounds >= 0.0)):
            raise ValidationError("curve bounds must be finite and nonnegative")
        if self.mode not in (MODE_LOWEST_ORDER, MODE_EXACT):
            raise ValidationError(f"unknown curve mode {self.mode!r}")
        if self.mode == MODE_EXACT and self.scheme not in _EXACT_LIMIT:
            raise ValidationError(f"scheme {self.scheme} has no exact values")
        object.__setattr__(self, "points", tuple((float(e), float(b)) for e, b in self.points))

    @property
    def bounds(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])


def _rate(delta_nu: float) -> float:
    """The measurement rate of every scheme: the bandwidth delta_nu, checked."""
    if not delta_nu > 0.0:  # NaN included
        raise ValidationError("delta_nu must be > 0")
    # every bound is at most 2 delta_nu: lowest order 2 eps^2 <= 2, exact CV norms below 1
    if not math.isfinite(2.0 * delta_nu):
        raise ValidationError(f"delta_nu = {delta_nu} is too large: the bounds overflow")
    return float(delta_nu)


def _validate_grid(eps_grid, what: str = "eps grid") -> np.ndarray:
    grid = np.asarray(eps_grid, dtype=float)
    if grid.ndim != 1:
        raise ValidationError(f"{what} must be one-dimensional")
    # NaN fails both comparisons
    if not (np.all((grid > 0.0) & (grid <= 1.0)) and np.all(np.diff(grid) > 0.0)):
        raise ValidationError(f"{what} must be strictly increasing within (0, 1]")
    return grid


def _bound_table(grid: np.ndarray, rate: float) -> np.ndarray:
    """Cumulative lowest-order bounds, one row per scheme in ``SchemeId`` order.

    ``float_power`` rounds eps^2 as a Python float's ``eps**2`` does; ``grid**2`` may not.
    """
    rows = map(_BOUND_COEFF_POWER.get, SchemeId)
    return np.array([rate * (coeff * np.float_power(grid, power)) for coeff, power in rows])


def cumulative_curves(
    eps_grid,
    delta_nu: float = 1.0,
    exact_cv: bool = False,
    g1: float = 0.0,
    g2: float = 0.0,
) -> list[SchemeCurve]:
    """Cumulative Fisher lower-bound curves, one per scheme, over a shared grid.

    Every bound is delta_nu times a single-shot value: the lowest-order one, or with
    ``exact_cv`` the exact trace norm at the given coherence for the schemes that have
    one (tagged "exact"). Scheme order is fixed; point order follows the grid. The
    coherence is checked on every call, whether or not ``exact_cv`` reads it.
    """
    grid = _validate_grid(eps_grid)
    _check_disk(g1, g2)
    rate = _rate(delta_nu)
    curves = []
    for scheme, bounds in zip(SchemeId, _bound_table(grid, rate)):
        limit = _EXACT_LIMIT.get(scheme) if exact_cv else None
        if limit is not None:
            bounds = [rate * fisher_limit_closed_form(e, g1, g2, limit).trace_norm for e in grid]
        mode = MODE_LOWEST_ORDER if limit is None else MODE_EXACT
        curves.append(SchemeCurve(scheme, tuple(zip(grid, bounds)), mode))
    return curves


def pairwise_crossings(lo: float = 0.0, hi: float = 1.0) -> list[dict]:
    """Analytic crossing points of the lowest-order bounds within (lo, hi].

    For bounds c_a eps^p and c_b eps^q with p != q the curves meet at
    eps = (c_a / c_b)^(1/(q - p)); equal-power pairs never cross (or coincide
    everywhere, reported separately).
    """
    crossings = []
    schemes = list(SchemeId)
    for i, first in enumerate(schemes):
        for second in schemes[i + 1 :]:
            ca, pa = _BOUND_COEFF_POWER[first]
            cb, pb = _BOUND_COEFF_POWER[second]
            if pa == pb:
                continue
            eps_star = (ca / cb) ** (1.0 / (pb - pa))
            if lo <= eps_star <= hi and eps_star > 0.0:
                crossings.append(
                    {"schemes": [first.value, second.value], "epsilon": float(eps_star)}
                )
    crossings.sort(key=lambda c: (c["epsilon"], c["schemes"]))
    return crossings


def _ranking(values: dict) -> list[list[str]]:
    """Schemes sorted by descending bound, exact ties grouped together."""
    ordered = sorted(values.items(), key=lambda kv: (-kv[1], kv[0].value))
    groups: list[list] = []
    for scheme, value in ordered:
        if groups and math.isclose(value, groups[-1][0], rel_tol=1e-12, abs_tol=0.0):
            groups[-1][1].append(scheme.value)
        else:
            groups.append([value, [scheme.value]])
    return [sorted(g[1]) if len(g[1]) > 1 else g[1] for g in groups]


#: the lowest-order ranking that holds for all eps below the first crossover
SMALL_EPS_RANKING = [["DD"], ["GJC12"], ["CV_INF"], ["CV_0", "LOCAL"]]


def ordering_report(eps_grid, delta_nu: float = 1.0) -> dict:
    """Machine-readable per-eps scheme ranking with analytic crossing points.

    Each grid entry carries the descending ranking (ties grouped) and whether it
    matches the small-eps ordering DD > GJC12 > CV_INF > CV_0 = LOCAL. Crossings
    are restricted to the grid's span; an empty grid yields an empty report.
    """
    grid = _validate_grid(eps_grid)
    rate = _rate(delta_nu)
    if grid.size == 0:
        return {"delta_nu": rate, "entries": [], "crossings": [], "coincident": []}
    rankings = [_ranking(dict(zip(SchemeId, b))) for b in _bound_table(grid, rate).T.tolist()]
    entries = [
        {"epsilon": eps, "ranking": r, "matches_small_eps_ordering": r == SMALL_EPS_RANKING}
        for eps, r in zip(grid.tolist(), rankings)
    ]
    return {
        "delta_nu": rate,
        "entries": entries,
        "crossings": pairwise_crossings(float(grid[0]), float(grid[-1])),
        "coincident": [[s.value for s in COINCIDENT_SCHEMES]],
    }


def curves_to_csv(curves: list[SchemeCurve]) -> str:
    """Normative CSV emission: header epsilon,scheme,bound,mode, one row per point."""
    rows = (
        (eps, curve.scheme.value, bound, curve.mode)
        for curve in curves
        for eps, bound in curve.points
    )
    return csv_dumps(CSV_HEADER, rows)
