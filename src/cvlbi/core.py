"""Gaussian covariance-matrix substrate: orderings, symplectic transforms, reduction.

Conventions fixed here and relied on by every other module:

* quadrature orderings are xp-interleaved per mode, e.g. (x_A1, p_A1, x_B1, p_B1);
* the vacuum covariance matrix is the identity;
* the symplectic form is block-diagonal Omega with 2x2 blocks [[0, 1], [-1, 0]];
* a full-state covariance matrix is physical when V + i*Omega >= 0, tested against
  a -1e-9 eigenvalue floor that absorbs accumulated round-off.

The literature carries at least three incompatible normalizations (vacuum variance
1/2, 1, or 2); nothing in this package is compatible with any convention other than
vacuum = identity.

Validation policy: public constructors validate, and so does any step whose
arithmetic can overflow (``apply_symplectic``, the state constructors). Exact
rearrangements (``direct_sum``, ``permute_modes``, ``reduce``) inherit their
inputs' guarantees: they return fresh read-only copies unchecked, and validate
each derived ordering once per distinct input.
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

#: distinct input orderings whose derived orderings the rearrangements remember
ORDERING_CACHE_SIZE = 64

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


def as_label(label) -> tuple[str, str]:
    """Normalize a quadrature label to a (mode, quadrature) tuple.

    Accepts ("A1", "x") pairs or "x_A1" strings.
    """
    if isinstance(label, str):
        quad, _, mode = label.partition("_")
        if not mode or quad not in QUADRATURES:
            raise ValidationError(f"malformed quadrature label: {label!r}")
        return (mode, quad)
    mode, quad = label
    if quad not in QUADRATURES:
        raise ValidationError(f"unknown quadrature {quad!r} in label {label!r}")
    return (str(mode), str(quad))


@dataclass(frozen=True)
class QuadratureOrdering:
    """Ordered assignment of (mode, quadrature) labels to vector/matrix slots.

    A full ordering carries exactly one x and one p per mode; an ordering marked
    ``reduced`` is a post-measurement selection and may pick any label subset.
    """

    labels: tuple
    reduced: bool = False

    def __post_init__(self):
        labels = tuple(as_label(lbl) for lbl in self.labels)
        object.__setattr__(self, "labels", labels)
        slots = {lbl: i for i, lbl in enumerate(labels)}
        if len(slots) != len(labels):
            raise ValidationError(f"duplicate quadrature labels in {self.names}")
        object.__setattr__(self, "_slots", slots)
        if not self.reduced:
            per_mode: dict[str, set] = {}
            for mode, quad in labels:
                per_mode.setdefault(mode, set()).add(quad)
            bad = sorted(m for m, quads in per_mode.items() if quads != {"x", "p"})
            if bad:
                raise ValidationError(
                    f"full ordering must pair x and p for every mode; incomplete: {bad}"
                )

    @classmethod
    def interleaved(cls, *modes: str) -> "QuadratureOrdering":
        """Full xp-interleaved ordering over the given modes."""
        return cls(tuple((m, q) for m in modes for q in QUADRATURES))

    @classmethod
    def selection(cls, labels) -> "QuadratureOrdering":
        """Reduced ordering over an explicit label list."""
        return cls(tuple(labels), reduced=True)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def modes(self) -> tuple[str, ...]:
        seen: list[str] = []
        for mode, _ in self.labels:
            if mode not in seen:
                seen.append(mode)
        return tuple(seen)

    @property
    def n_modes(self) -> int:
        if self.reduced:
            raise ValidationError("mode count is only defined for full orderings")
        return self.dim // 2

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"{q}_{m}" for m, q in self.labels)

    def index(self, label) -> int:
        lbl = as_label(label)
        try:
            return self._slots[lbl]
        except KeyError:
            raise ValidationError(f"label {lbl} not in ordering {self.names}") from None

    def is_permutation_of(self, other: "QuadratureOrdering") -> bool:
        return set(self.labels) == set(other.labels) and self.dim == other.dim


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Real symmetric second-moment matrix over an explicit quadrature ordering.

    Entries are dimensionless quadrature variances with vacuum = 1 on the diagonal.
    The array is stored read-only; instances are immutable and safe to share.
    """

    ordering: QuadratureOrdering
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        d = self.ordering.dim
        if m.shape != (d, d):
            raise ValidationError(f"entries shape {m.shape} does not match ordering dim {d}")
        if not np.isfinite(m).all():
            raise ValidationError("covariance entries must be finite")
        skew = float(np.abs(m - m.T).max(initial=0.0))
        if skew > SYMMETRY_TOL:
            raise ValidationError(f"covariance not symmetric (max |V - V^T| = {skew:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @classmethod
    def _derived(cls, ordering: QuadratureOrdering, entries: np.ndarray) -> "CovarianceMatrix":
        """Wrap a fresh array rearranged exactly from validated matrices, unchecked."""
        entries.flags.writeable = False
        out = object.__new__(cls)
        out.__dict__.update(ordering=ordering, entries=entries)
        return out

    @property
    def dim(self) -> int:
        return self.ordering.dim


@dataclass(frozen=True)
class PhysicalityReport:
    """Minimum eigenvalue of V + i*Omega and the pass/fail verdict."""

    min_eigenvalue: float
    passed: bool
    threshold: float = PHYSICALITY_THRESHOLD


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


@lru_cache(maxsize=ORDERING_CACHE_SIZE)
def _sum_ordering(o1: QuadratureOrdering, o2: QuadratureOrdering) -> QuadratureOrdering:
    common = set(o1.modes) & set(o2.modes)
    if common:
        raise ValidationError(f"mode names collide in direct sum: {sorted(common)}")
    return QuadratureOrdering(o1.labels + o2.labels, reduced=o1.reduced or o2.reduced)


def direct_sum(v1: CovarianceMatrix, v2: CovarianceMatrix) -> CovarianceMatrix:
    """Covariance matrix of a product state: block-diagonal over concatenated modes."""
    ordering = _sum_ordering(v1.ordering, v2.ordering)
    d1 = v1.dim
    entries = np.zeros((ordering.dim, ordering.dim))
    entries[:d1, :d1] = v1.entries
    entries[d1:, d1:] = v2.entries
    return CovarianceMatrix._derived(ordering, entries)


@lru_cache(maxsize=ORDERING_CACHE_SIZE)
def _permutation(source: QuadratureOrdering, target: QuadratureOrdering) -> tuple:
    if not target.is_permutation_of(source):
        raise ValidationError(
            f"target ordering {target.names} is not a permutation of {source.names}"
        )
    perm = [source.index(lbl) for lbl in target.labels]
    return np.ix_(perm, perm)


def permute_modes(v: CovarianceMatrix, target: QuadratureOrdering) -> CovarianceMatrix:
    """Reorder a covariance matrix onto a target ordering of the same labels.

    Equivalent to conjugation by the permutation matrix; exact (pure indexing),
    so permute-then-inverse-permute restores the input bit for bit.
    """
    return CovarianceMatrix._derived(target, v.entries[_permutation(v.ordering, target)])


def apply_symplectic(v: CovarianceMatrix, s: np.ndarray) -> CovarianceMatrix:
    """Transform V -> S V S^T for a symplectic matrix S.

    S must satisfy S Omega S^T = Omega to within SYMPLECTIC_TOL; the residual
    norm is reported on rejection. The result is symmetrized before return so
    round-off cannot break the symmetry invariant.
    """
    if v.ordering.reduced:
        raise ValidationError("symplectic transforms require a full ordering")
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
    return CovarianceMatrix(v.ordering, out)


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


@lru_cache(maxsize=ORDERING_CACHE_SIZE)
def _selection(source: QuadratureOrdering, labels: tuple) -> tuple:
    idx = [source.index(lbl) for lbl in labels]
    return QuadratureOrdering.selection(labels), np.ix_(idx, idx)


def reduce(v: CovarianceMatrix, keep) -> CovarianceMatrix:
    """Principal submatrix over the quadrature labels in ``keep``, in that order.

    Keeping every label in the original order returns the input unchanged;
    otherwise the result ordering is marked reduced.
    """
    labels = tuple(as_label(lbl) for lbl in keep)
    if labels == v.ordering.labels:
        return v
    ordering, index = _selection(v.ordering, labels)
    return CovarianceMatrix._derived(ordering, v.entries[index])


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
    if v.ordering.reduced:
        raise ValidationError("physicality is only defined for full orderings")
    omega = symplectic_form(v.ordering.n_modes)
    herm = v.entries + 1j * omega
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    return PhysicalityReport(min_eig, min_eig >= PHYSICALITY_THRESHOLD)
