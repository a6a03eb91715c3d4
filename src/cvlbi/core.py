"""Gaussian covariance-matrix substrate: quadrature names, symplectic transforms, reduction.

Conventions fixed here and relied on by every other module:

* a covariance matrix carries the names of its quadratures, e.g. ("x_A1", "p_A1");
  it is a full state when the names are whole modes in xp-interleaved order,
  e.g. (x_A1, p_A1, x_B1, p_B1), and only a full state has a symplectic form;
* the vacuum covariance matrix is the identity;
* the symplectic form is block-diagonal Omega with 2x2 blocks [[0, 1], [-1, 0]];
* a full-state covariance matrix is physical when V + i*Omega >= 0, tested against
  a -1e-9 eigenvalue floor that absorbs accumulated round-off.

The literature carries at least three incompatible normalizations (vacuum variance
1/2, 1, or 2); nothing in this package is compatible with any convention other than
vacuum = identity.

Validation policy: public constructors validate, and so does ``apply_symplectic``,
whose matrix is arbitrary. Exact rearrangements (``direct_sum``, ``permute_modes``,
``reduce``) check the names they are given and return fresh read-only copies of the
entries unchecked. The state constructors and the measured pipeline wrap their
entries unchecked too: their validated parameters cannot overflow an entry, each
entry is placed symmetrically, and a test checks the constant beam splitter once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SYMMETRY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-9
PHYSICALITY_THRESHOLD = -1e-9
CONDITION_LIMIT = 1e12
_MACHINE_EPSILON = float(np.finfo(float).eps)

#: rows of standard normals every sampler draws at a time (512 KB); a record's bits do not
#: depend on it, a Monte Carlo Fisher sum's last bits do. At 2^14 a Monte Carlo chunk's
#: working set (normals, U Z and scores: 1.8 MB) stays in a 2 MB L2 cache.
DRAW_CHUNK = 1 << 14

QUADRATURES = ("x", "p")


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class NumericalError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


def _check_integer(name: str, value, low: int, high: float = math.inf) -> None:
    """Reject a ``value`` that is not an integer in [low, high], naming it ``name``.

    A ``bool`` is not an integer here, as numpy's ``np.bool_`` is not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValidationError(f"{name} must be {bounds}")


def _check_outcomes(outcomes) -> np.ndarray:
    """Homodyne ``outcomes`` as a float array, rejected unless finite and (M >= 1) x 4."""
    m = np.asarray(outcomes, dtype=float)
    if m.ndim != 2 or m.shape[1] != 4 or m.shape[0] < 1:
        raise ValidationError(f"outcomes must be an (M >= 1) x 4 array, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("outcomes must be finite")
    return m


def _mode(name) -> str:
    """The mode of a quadrature name such as ``"x_A1"``; anything else is rejected."""
    quad, _, mode = name.partition("_") if isinstance(name, str) else ("", "", "")
    if quad not in QUADRATURES or not mode:
        raise ValidationError(f"malformed quadrature name: {name!r}")
    return mode


def interleaved(*modes: str) -> tuple[str, ...]:
    """Names of the full xp-interleaved ordering over ``modes``."""
    return tuple(f"{q}_{m}" for m in modes for q in QUADRATURES)


def _is_full(names: tuple) -> bool:
    """Whether ``names`` are whole modes in xp-interleaved order, the layout Omega assumes."""
    return len(names) % 2 == 0 and names == interleaved(*map(_mode, names[::2]))


def _indices(names: tuple, wanted) -> tuple:
    """The ``np.ix_`` index taking a matrix over ``names`` to one over ``wanted``, in order."""
    missing = next((name for name in wanted if name not in names), None)
    if missing is not None:
        raise ValidationError(f"quadrature {missing!r} not in {names}")
    if len(set(wanted)) != len(wanted):
        raise ValidationError(f"duplicate quadrature names in {wanted}")
    index = [names.index(name) for name in wanted]
    return np.ix_(index, index)


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Real symmetric second-moment matrix over named quadratures, e.g. ("x_A1", "p_A1").

    Entries are dimensionless quadrature variances with vacuum = 1 on the diagonal.
    The array is stored read-only; instances are immutable and safe to share.
    """

    names: tuple
    entries: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        for name in names:
            _mode(name)
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate quadrature names in {names}")
        m = np.array(self.entries, dtype=float)
        d = len(names)
        if m.shape != (d, d):
            raise ValidationError(f"entries shape {m.shape} does not match {d} names")
        if not np.isfinite(m).all():
            raise ValidationError("covariance entries must be finite")
        skew = float(np.abs(m - m.T).max(initial=0.0))
        if skew > SYMMETRY_TOL:
            raise ValidationError(f"covariance not symmetric (max |V - V^T| = {skew:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "entries", m)

    @classmethod
    def _derived(cls, names: tuple, entries: np.ndarray) -> "CovarianceMatrix":
        """Wrap, unchecked and made read-only, a fresh array finite and symmetric by
        construction: validated matrices rearranged, or validated parameters placed so."""
        entries.flags.writeable = False
        out = object.__new__(cls)
        out.__dict__.update(names=names, entries=entries)
        return out

    @property
    def dim(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class PhysicalityReport:
    """Minimum eigenvalue of V + i*Omega and the pass/fail verdict at PHYSICALITY_THRESHOLD."""

    min_eigenvalue: float
    passed: bool


@lru_cache(maxsize=16)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Omega for n modes in xp-interleaved ordering.

    Omega is antisymmetric and squares to -I. Built once per n and read-only.
    """
    if n_modes < 1:
        raise ValidationError("n_modes must be >= 1")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    omega.flags.writeable = False
    return omega


def direct_sum(v1: CovarianceMatrix, v2: CovarianceMatrix) -> CovarianceMatrix:
    """Covariance matrix of a product state: block-diagonal over concatenated modes."""
    common = set(map(_mode, v1.names)) & set(map(_mode, v2.names))
    if common:
        raise ValidationError(f"mode names collide in direct sum: {sorted(common)}")
    d1, d = v1.dim, v1.dim + v2.dim
    entries = np.zeros((d, d))
    entries[:d1, :d1] = v1.entries
    entries[d1:, d1:] = v2.entries
    return CovarianceMatrix._derived(v1.names + v2.names, entries)


def permute_modes(v: CovarianceMatrix, target) -> CovarianceMatrix:
    """Reorder a covariance matrix onto ``target``, a reordering of its names.

    Equivalent to conjugation by the permutation matrix; exact (pure indexing),
    so permute-then-inverse-permute restores the input bit for bit.
    """
    target = tuple(target)
    if len(target) != v.dim:
        raise ValidationError(f"{target} is not a permutation of {v.names}")
    return CovarianceMatrix._derived(target, v.entries[_indices(v.names, target)])


def apply_symplectic(v: CovarianceMatrix, s: np.ndarray) -> CovarianceMatrix:
    """Transform V -> S V S^T for a symplectic matrix S.

    S must satisfy S Omega S^T = Omega to within SYMPLECTIC_TOL; the residual
    norm is reported on rejection. The result is symmetrized before return so
    round-off cannot break the symmetry invariant.
    """
    if not _is_full(v.names):
        raise ValidationError(f"symplectic transforms need whole interleaved modes: {v.names}")
    s = np.asarray(s, dtype=float)
    d = v.dim
    if s.shape != (d, d):
        raise ValidationError(f"matrix shape {s.shape} does not match state dim {d}")
    omega = symplectic_form(d // 2)
    residual = float(np.abs(s @ omega @ s.T - omega).max())
    if residual > SYMPLECTIC_TOL:
        raise ValidationError(
            f"matrix is not symplectic: max |S Omega S^T - Omega| = {residual:.3e}"
        )
    out = s @ v.entries @ s.T
    out = (out + out.T) / 2.0
    return CovarianceMatrix(v.names, out)


# Order-13 Pade scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
# Matrices in this package are 4x4 to 8x8, so accuracy is the only concern.
_PADE13_THETA = 5.371920351148152
_PADE13_COEFFS = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(M) by the order-13 Pade approximant with scaling and squaring.

    M is scaled by 2^-s so its 1-norm is at most the order-13 threshold, and the
    approximant is squared s times. exp(0) = I exactly.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix exponential needs a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix exponential needs finite entries")
    norm = float(np.linalg.norm(a, 1))
    if norm == 0.0:
        return np.eye(a.shape[0])
    squarings = max(0, math.ceil(math.log2(norm / _PADE13_THETA)))
    a = a / (2.0**squarings)
    b = _PADE13_COEFFS
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    odd = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    u = a @ (odd + b[1] * ident)
    even = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    v = even + b[0] * ident
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


def reduce(v: CovarianceMatrix, keep) -> CovarianceMatrix:
    """Principal submatrix over the quadrature names in ``keep``, in that order.

    Keeping every name in the original order returns the input unchanged. Keeping
    whole modes in xp-interleaved order gives a full state, the Gaussian marginal.
    """
    keep = tuple(keep)
    if keep == v.names:
        return v
    return CovarianceMatrix._derived(keep, v.entries[_indices(v.names, keep)])


def _check_positive_definite(entries: np.ndarray, what: str) -> None:
    eigs = np.linalg.eigvalsh(entries)
    low, high = float(eigs[0]), float(eigs[-1])
    # eigenvalues are resolved only to about dim * machine epsilon * the largest one
    resolution = entries.shape[-1] * _MACHINE_EPSILON * abs(high)
    if low < -resolution:
        raise NumericalError(f"{what} is not positive definite (min eigenvalue {low:.3e})")
    if low <= 0.0 or high / low > CONDITION_LIMIT:
        condition = high / low if low > 0.0 else math.inf
        raise NumericalError(f"{what} is numerically singular (condition number {condition:.3e})")


def check_physicality(v: CovarianceMatrix) -> PhysicalityReport:
    """Diagnostic for the uncertainty condition V + i*Omega >= 0 on full states."""
    if not _is_full(v.names):
        raise ValidationError(f"physicality needs whole interleaved modes: {v.names}")
    omega = symplectic_form(v.dim // 2)
    herm = v.entries + 1j * omega
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    return PhysicalityReport(min_eig, min_eig >= PHYSICALITY_THRESHOLD)
