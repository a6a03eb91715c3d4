"""Beam-splitter pipeline from input states to the measured homodyne covariance.

The thermal state on (A1, B1) and the squeezed resource on (A2, B2) are combined
into a product state, one balanced beam splitter mixes A1 with A2 and another
mixes B1 with B2, and the outcome statistics of the measured quadrature set
{x_A1, p_A2, x_B1, p_B2} are the zero-mean Gaussian with the reduced covariance
returned here.

The product state is assembled in (A1, B1, A2, B2) order while the beam splitters
act on (A1, A2) and (B1, B2) pairs, so an explicit mode permutation sits between
the two steps. That permutation is a named constant with its own unit test; doing
it silently with index arithmetic is the likeliest way to get this wrong.

Both a step-by-step pipeline and the direct closed form of the reduced covariance
are provided. They agree to 1e-12. The closed form is linear in the coherence,
V_r(g) = V_0 + g1 D1 + g2 D2; ``MeasuredModel`` holds V_0, D1 and D2 and is what
downstream consumers (Fisher information, scores, sampling, likelihood) use. The
pipeline result is recorded alongside for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    CovarianceMatrix,
    QuadratureOrdering,
    apply_symplectic,
    direct_sum,
    permute_modes,
    reduce,
)
from .states import (
    SourceParams,
    TmsvParams,
    astronomical_covariance,
    tmsv_covariance_closed,
)

#: ordering produced by the product-state direct sum
PRODUCT_ORDERING = QuadratureOrdering.interleaved("A1", "B1", "A2", "B2")

#: ordering on which the beam splitters act (telescope-site pairs)
OUTPUT_ORDERING = QuadratureOrdering.interleaved("A1", "A2", "B1", "B2")

#: slot map for the (A1, B1, A2, B2) -> (A1, A2, B1, B2) reordering
PRODUCT_TO_OUTPUT_PERMUTATION = (0, 1, 4, 5, 2, 3, 6, 7)

#: the measured quadratures: one x and one p per telescope site, from different inputs
MEASURED_LABELS = (("A1", "x"), ("A2", "p"), ("B1", "x"), ("B2", "p"))
MEASURED_ORDERING = QuadratureOrdering.selection(MEASURED_LABELS)


#: where the coherence enters the measured covariance: D_i = (eps / 2) * slots_i
_G1_SLOTS = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
_G2_SLOTS = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)


@dataclass(frozen=True)
class InterferometerConfig:
    """Source and resource parameters feeding the fixed two-telescope layout."""

    source: SourceParams
    resource: TmsvParams

    @property
    def measured(self) -> QuadratureOrdering:
        """The fixed homodyne selection; not configurable in this layout."""
        return MEASURED_ORDERING

    @cached_property
    def model(self) -> "MeasuredModel":
        """The measured covariance as a linear function of the coherence, built once."""
        return MeasuredModel.from_config(self)

    @classmethod
    def from_values(
        cls,
        epsilon: float,
        g1: float = 0.0,
        g2: float = 0.0,
        n_bar: float = 0.0,
        theta: float = 0.0,
    ) -> "InterferometerConfig":
        return cls(SourceParams(epsilon, g1, g2), TmsvParams(n_bar, theta))


def beam_splitter_matrix() -> np.ndarray:
    """Balanced two-mode beam splitter on (x_1, p_1, x_2, p_2); orthogonal and symplectic."""
    return np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
    ) / math.sqrt(2.0)


#: one beam splitter per telescope site, on OUTPUT_ORDERING; read-only
_TWO_SITE_BEAM_SPLITTER = np.zeros((8, 8))
_TWO_SITE_BEAM_SPLITTER[:4, :4] = _TWO_SITE_BEAM_SPLITTER[4:, 4:] = beam_splitter_matrix()
_TWO_SITE_BEAM_SPLITTER.flags.writeable = False


def abbreviations(cfg: InterferometerConfig) -> tuple[float, float, float, float, float, float]:
    """The six scalars (a, b, c, d, e, f) the output covariance is written in.

    a = eps + 1, b = 2 n_bar + 1, c = eps g1, e = eps g2,
    d = 2 cos(theta) sqrt(n_bar (n_bar + 1)), f = the sin(theta) analogue.
    """
    eps = cfg.source.epsilon
    n = cfg.resource.n_bar
    root = 2.0 * math.sqrt(n * (n + 1.0))
    a = eps + 1.0
    b = 2.0 * n + 1.0
    c = eps * cfg.source.g1
    d = math.cos(cfg.resource.theta) * root
    e = eps * cfg.source.g2
    f = math.sin(cfg.resource.theta) * root
    return a, b, c, d, e, f


def full_output_covariance(cfg: InterferometerConfig) -> CovarianceMatrix:
    """Post-beam-splitter covariance on (A1, A2, B1, B2), computed step by step."""
    product = direct_sum(
        astronomical_covariance(cfg.source), tmsv_covariance_closed(cfg.resource)
    )
    paired = permute_modes(product, OUTPUT_ORDERING)
    return apply_symplectic(paired, _TWO_SITE_BEAM_SPLITTER)


def full_output_covariance_closed(cfg: InterferometerConfig) -> CovarianceMatrix:
    """Post-beam-splitter covariance from its closed-form blocks.

    V_f = (1/2) [[V_D, V_12], [V_21, V_D]] with V_21 = V_12^T, in the same
    (A1, A2, B1, B2) ordering as the pipeline result.
    """
    a, b, c, d, e, f = abbreviations(cfg)
    v_d = np.array(
        [
            [a + b, 0.0, -a + b, 0.0],
            [0.0, a + b, 0.0, -a + b],
            [-a + b, 0.0, a + b, 0.0],
            [0.0, -a + b, 0.0, a + b],
        ]
    )
    v_12 = np.array(
        [
            [c + d, -e + f, -c + d, e + f],
            [e + f, c - d, -e + f, -(c + d)],
            [-c + d, e + f, c + d, -e + f],
            [-e + f, -(c + d), e + f, c - d],
        ]
    )
    entries = 0.5 * np.block([[v_d, v_12], [v_12.T, v_d]])
    return CovarianceMatrix(OUTPUT_ORDERING, entries)


@dataclass(frozen=True, eq=False)
class MeasuredModel:
    """Measured covariance over (x_A1, p_A2, x_B1, p_B2) as V_0 + g1 D1 + g2 D2.

    V_0 carries the source flux and the resource; D1 and D2 are the exact,
    constant derivatives dV_r/dg1 and dV_r/dg2. The arrays are read-only.
    """

    v0: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    @classmethod
    def from_config(cls, cfg: InterferometerConfig) -> "MeasuredModel":
        """Model at the config's (epsilon, n_bar, theta); its coherence is not used."""
        a, b, _, d, _, f = abbreviations(cfg)
        s = a + b
        v0 = 0.5 * np.array([[s, 0.0, d, f], [0.0, s, f, -d], [d, f, s, 0.0], [f, -d, 0.0, s]])
        half_eps = 0.5 * cfg.source.epsilon
        arrays = (v0, half_eps * _G1_SLOTS, half_eps * _G2_SLOTS)
        for array in arrays:
            array.flags.writeable = False
        return cls(*arrays)

    def covariance(self, g1, g2) -> np.ndarray:
        """V_r at coherence (g1, g2); the caller is responsible for |g| <= 1.

        g1 and g2 may be arrays of shape (n, 1, 1), giving a stack of n matrices.
        """
        return self.v0 + g1 * self.d1 + g2 * self.d2


def reduced_covariance_closed(cfg: InterferometerConfig) -> CovarianceMatrix:
    """Measured-quadrature covariance over (x_A1, p_A2, x_B1, p_B2), closed form."""
    entries = cfg.model.covariance(cfg.source.g1, cfg.source.g2)
    return CovarianceMatrix(MEASURED_ORDERING, entries)


@dataclass(frozen=True, eq=False)
class ReducedState:
    """Measured covariance with its defining scalars and the pipeline cross-check.

    ``v_r`` is the closed form (canonical for downstream use); ``v_r_pipeline`` is
    the product-permute-interfere-reduce result kept for verification.
    """

    v_r: CovarianceMatrix
    v_r_pipeline: CovarianceMatrix
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    @cached_property
    def pipeline_gap(self) -> float:
        """Largest entrywise difference between the two construction routes."""
        return float(np.max(np.abs(self.v_r.entries - self.v_r_pipeline.entries)))


def reduced_covariance(cfg: InterferometerConfig) -> ReducedState:
    """Run the pipeline, reduce to the measured quadratures, and pair with the closed form."""
    pipeline = reduce(full_output_covariance(cfg), MEASURED_LABELS)
    closed = reduced_covariance_closed(cfg)
    a, b, c, d, e, f = abbreviations(cfg)
    return ReducedState(closed, pipeline, a, b, c, d, e, f)
