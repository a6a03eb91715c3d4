"""Beam-splitter pipeline from input states to the measured homodyne covariance.

The thermal state on (A1, B1) and the squeezed resource on (A2, B2) are combined
into a product state, one balanced beam splitter mixes A1 with A2 and another
mixes B1 with B2, and the outcome statistics of the measured quadrature set
{x_A1, p_A2, x_B1, p_B2} are the zero-mean Gaussian with the reduced covariance
returned here.

The product state is assembled in (A1, B1, A2, B2) order while the beam splitters
act on (A1, A2) and (B1, B2) pairs, so an explicit mode permutation sits between
the two steps. Index arithmetic here is the likeliest way to get this wrong, so the
permutation and the measured selection are never typed by hand: both are derived at
import from the quadrature names by ``core._indices`` and then made flat gathers.

Both a step-by-step pipeline and the direct closed form of the reduced covariance
are provided. They agree to 1e-12. The closed form is linear in the coherence,
V_r(g) = V_0 + g1 D1 + g2 D2. ``InterferometerConfig`` holds V_0, D1 and D2, V_r at its
own coherence and V_r's Cholesky factor, each built once per config, and is what
downstream consumers (Fisher information, scores, sampling, likelihood) read. The
pipeline result is recorded alongside for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import CovarianceMatrix, _check_positive_definite, _indices, interleaved
from .states import (
    ASTRO_ORDERING,
    TMSV_ORDERING,
    SourceParams,
    TmsvParams,
    astronomical_covariance,
    tmsv_covariance_closed,
)

#: quadratures on which the beam splitters act (telescope-site pairs)
OUTPUT_ORDERING = interleaved("A1", "A2", "B1", "B2")

#: the measured quadratures: one x and one p per telescope site, from different inputs
MEASURED_ORDERING = ("x_A1", "p_A2", "x_B1", "p_B2")

#: index arrays: the product's (A1, B1, A2, B2) order to OUTPUT_ORDERING, and the measured set
_PAIRED = _indices(ASTRO_ORDERING + TMSV_ORDERING, OUTPUT_ORDERING)
_MEASURED = _indices(OUTPUT_ORDERING, MEASURED_ORDERING)
#: both as flat gathers: from (astro entries, TMSV entries, 0) and from the 8x8's entries
_PRODUCT = np.full((8, 8), 32)  # where each entry of the product sits in that vector
_PRODUCT[:4, :4], _PRODUCT[4:, 4:] = np.arange(32).reshape(2, 4, 4)
_PAIRED_FLAT = _PRODUCT[_PAIRED]
_MEASURED_FLAT = np.arange(64).reshape(8, 8)[_MEASURED]

#: where the coherence enters the measured covariance: D_i = (eps / 2) * slots_i
_SLOTS = np.array([[[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
                   [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]], dtype=float)


@dataclass(frozen=True)
class InterferometerConfig:
    """Source and resource parameters feeding the fixed two-telescope layout, and the
    measured model they fix: V_r(g) = V_0 + g1 D1 + g2 D2 over (x_A1, p_A2, x_B1, p_B2).
    Each array below is built once per config, on first use, and is read-only."""

    source: SourceParams
    resource: TmsvParams

    @cached_property
    def v0(self) -> np.ndarray:
        """V_0: the source flux and the resource, V_r at zero coherence."""
        a, b, _, d, _, f = abbreviations(self)
        s = a + b
        v0 = 0.5 * np.array([[s, 0.0, d, f], [0.0, s, f, -d], [d, f, s, 0.0], [f, -d, 0.0, s]])
        v0.flags.writeable = False
        return v0

    @cached_property
    def d(self) -> np.ndarray:
        """D1 and D2 stacked (2x4x4): the exact, constant derivatives dV_r/dg."""
        d = 0.5 * self.source.epsilon * _SLOTS
        d.flags.writeable = False
        return d

    def covariance(self, g1, g2) -> np.ndarray:
        """V_r at coherence (g1, g2); the caller is responsible for |g| <= 1.

        g1 and g2 may be arrays of shape (n, 1, 1), giving a stack of n matrices.
        """
        return self.v0 + g1 * self.d[0] + g2 * self.d[1]

    @cached_property
    def _v_r(self) -> np.ndarray:
        """V_r at the config's coherence, unchecked."""
        v = self.covariance(self.source.g1, self.source.g2)
        v.flags.writeable = False
        return v

    @cached_property
    def measured_covariance(self) -> np.ndarray:
        """V_r at the config's coherence, checked positive definite once."""
        _check_positive_definite(self._v_r, "measured covariance")
        return self._v_r

    @cached_property
    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of ``measured_covariance``: every sampler and score reads it."""
        chol = np.linalg.cholesky(self.measured_covariance)
        chol.flags.writeable = False
        return chol

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
    """Post-beam-splitter covariance on (A1, A2, B1, B2): product state, permutation, S V S^T."""
    astro = astronomical_covariance(cfg.source).entries
    tmsv = tmsv_covariance_closed(cfg.resource).entries
    product = np.concatenate((astro.ravel(), tmsv.ravel(), [0.0])).take(_PAIRED_FLAT)
    out = _TWO_SITE_BEAM_SPLITTER @ product @ _TWO_SITE_BEAM_SPLITTER.T
    return CovarianceMatrix._derived(OUTPUT_ORDERING, (out + out.T) / 2.0)  # as apply_symplectic


def reduced_covariance_closed(cfg: InterferometerConfig) -> CovarianceMatrix:
    """Measured-quadrature covariance over (x_A1, p_A2, x_B1, p_B2), closed form."""
    return CovarianceMatrix._derived(MEASURED_ORDERING, cfg._v_r)  # sums of symmetric arrays


@dataclass(frozen=True, eq=False)
class ReducedState:
    """Measured covariance by two construction routes.

    ``v_r`` is the closed form (canonical for downstream use); ``v_r_pipeline`` is
    the product-permute-interfere-reduce result kept for verification, and
    ``v_full`` is the post-beam-splitter covariance it was reduced from. The
    scalars the closed form is written in come from ``abbreviations``.
    """

    v_r: CovarianceMatrix
    v_r_pipeline: CovarianceMatrix
    v_full: CovarianceMatrix

    @cached_property
    def pipeline_gap(self) -> float:
        """Largest entrywise difference between the two construction routes."""
        return float(np.abs(self.v_r.entries - self.v_r_pipeline.entries).max())


def reduced_covariance(cfg: InterferometerConfig) -> ReducedState:
    """Run the pipeline, reduce to the measured quadratures, and pair with the closed form."""
    full = full_output_covariance(cfg)
    pipeline = CovarianceMatrix._derived(MEASURED_ORDERING, full.entries.take(_MEASURED_FLAT))
    return ReducedState(reduced_covariance_closed(cfg), pipeline, full)
