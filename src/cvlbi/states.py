"""Input-state constructors: bipartite thermal light and two-mode squeezed vacuum.

The thermal (astronomical) state lives on modes A1/B1 and is parameterized by the
photon flux per coherence time epsilon and the complex mutual coherence
g = g1 + i*g2 with |g| <= 1. The squeezed resource lives on modes A2/B2 and is
parameterized by its per-mode mean photon number n_bar and squeezing phase theta.

Each closed form is written once, as its 16 entries row by row (``_astro_entries``,
``_tmsv_entries``): the public constructors wrap them, and the interferometer's
product state reads them directly. The squeezed covariance is built two ways, by
closed form and through the symplectic exponential exp(Omega H); the constructions
agree to 1e-10 and the redundancy is part of the test strategy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import CovarianceMatrix, ValidationError, interleaved, matrix_exponential

# slack on |g|^2 <= 1 so decimal parsing round-off cannot reject boundary inputs
G_NORM_SLACK = 1e-12

TWO_PI = 2.0 * math.pi

ASTRO_ORDERING = interleaved("A1", "B1")
TMSV_ORDERING = interleaved("A2", "B2")


def _check_disk(g1: float, g2: float) -> None:
    # written so that NaN fails the comparison and is rejected with infinities
    if not g1 * g1 + g2 * g2 <= 1.0 + G_NORM_SLACK:
        raise ValidationError(f"need finite g with |g| <= 1 (g1={g1}, g2={g2})")


def _covariance_overflows(n_bar: float) -> bool:
    # the TMSV cross block scales with sqrt(n_bar (n_bar + 1)); inf there becomes NaN
    return not math.isfinite(n_bar * (n_bar + 1.0))


def _check_flux(eps: float) -> None:
    # the Fisher limits carry eps^2 times up to 2 (at |g| = 1, plus the disk slack) plus
    # terms in eps; 4 eps^2 bounds them all, and every covariance entry is far smaller
    if not math.isfinite(4.0 * eps * eps):
        raise ValidationError(f"epsilon = {eps} is too large: its eps^2 terms overflow")
    # below this the eps^2 terms are subnormal and the Fisher information loses its digits
    if eps * eps < sys.float_info.min:
        raise ValidationError(f"epsilon = {eps} is too small: its eps^2 terms underflow")


@dataclass(frozen=True)
class SourceParams:
    """Astronomical-state parameters: photon flux epsilon and mutual coherence g.

    epsilon must be strictly positive: at zero flux the covariance does not depend on
    g, so nothing about g can be measured. The vacuum is the identity covariance in
    this convention, as is a TMSV with n_bar = 0.
    """

    epsilon: float
    g1: float = 0.0
    g2: float = 0.0

    def __post_init__(self):
        for name in ("epsilon", "g1", "g2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
        if self.epsilon <= 0.0:
            raise ValidationError("epsilon must be > 0")
        _check_flux(self.epsilon)
        _check_disk(self.g1, self.g2)


@dataclass(frozen=True)
class TmsvParams:
    """Squeezed-resource parameters: mean photon number n_bar and phase theta.

    theta is stored reduced into [0, 2 pi). The squeezing magnitude r follows from
    2 n_bar + 1 = cosh(2 r) and round-trips with n_bar to 1e-12 relative.
    """

    n_bar: float
    theta: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.n_bar):
            raise ValidationError("n_bar must be finite")
        if self.n_bar < 0.0:
            raise ValidationError("n_bar must be >= 0")
        if _covariance_overflows(self.n_bar):
            raise ValidationError(f"n_bar = {self.n_bar} is too large: the covariance overflows")
        if not math.isfinite(self.theta):
            raise ValidationError("theta must be finite")
        object.__setattr__(self, "theta", self.theta % TWO_PI)

    @classmethod
    def from_r(cls, r: float, theta: float = 0.0) -> "TmsvParams":
        if not math.isfinite(r) or r < 0.0:
            raise ValidationError("squeezing magnitude r must be finite and >= 0")
        try:
            n_bar = math.sinh(r) ** 2
        except OverflowError:
            n_bar = math.inf
        if _covariance_overflows(n_bar):
            raise ValidationError(f"squeezing magnitude r = {r} overflows the covariance")
        return cls(n_bar=n_bar, theta=theta)

    @property
    def r(self) -> float:
        return 0.5 * math.acosh(2.0 * self.n_bar + 1.0)


def _astro_entries(params: SourceParams) -> tuple[float, ...]:
    """The 16 entries of ``astronomical_covariance``, row by row."""
    eps = params.epsilon
    a, c, e = eps + 1.0, eps * params.g1, eps * params.g2
    return (a, 0.0, c, -e, 0.0, a, e, c, c, e, a, 0.0, -e, c, 0.0, a)


def astronomical_covariance(params: SourceParams) -> CovarianceMatrix:
    """Covariance of the bipartite thermal astronomical state on (A1, B1).

    Diagonal entries are epsilon + 1; the A1-B1 cross block couples the two sites
    through the mutual coherence:

        [[eps*g1, -eps*g2],
         [eps*g2,  eps*g1]]
    """
    entries = np.array(_astro_entries(params)).reshape(4, 4)
    return CovarianceMatrix._derived(ASTRO_ORDERING, entries)


def _tmsv_entries(params: TmsvParams) -> tuple[float, ...]:
    """The 16 entries of ``tmsv_covariance_closed``, row by row."""
    n = params.n_bar
    b = 2.0 * n + 1.0
    root = 2.0 * math.sqrt(n * (n + 1.0))
    c, s = root * math.cos(params.theta), root * math.sin(params.theta)
    return (b, 0.0, c, s, 0.0, b, s, -c, c, s, b, 0.0, s, -c, 0.0, b)


def tmsv_covariance_closed(params: TmsvParams) -> CovarianceMatrix:
    """Two-mode squeezed vacuum covariance on (A2, B2), closed form.

    Diagonal blocks are (2 n_bar + 1) I_2; cross blocks are
    2 sqrt(n_bar (n_bar + 1)) (cos(theta) sigma_z + sin(theta) sigma_x).
    """
    entries = np.array(_tmsv_entries(params)).reshape(4, 4)
    return CovarianceMatrix._derived(TMSV_ORDERING, entries)


def tmsv_generator(params: TmsvParams) -> np.ndarray:
    """Quadratic-Hamiltonian generator Omega H of the two-mode squeezer."""
    r = params.r
    c = r * math.cos(params.theta)
    s = r * math.sin(params.theta)
    return np.array(
        [
            [0.0, 0.0, c, s],
            [0.0, 0.0, s, -c],
            [c, s, 0.0, 0.0],
            [s, -c, 0.0, 0.0],
        ]
    )


def tmsv_covariance_exponential(params: TmsvParams) -> CovarianceMatrix:
    """Two-mode squeezed vacuum covariance via S = exp(Omega H), V = S S^T.

    Cross-checks the closed form (agreement to 1e-10 is a package invariant).
    """
    s = matrix_exponential(tmsv_generator(params))
    entries = s @ s.T
    entries = (entries + entries.T) / 2.0
    return CovarianceMatrix(TMSV_ORDERING, entries)
