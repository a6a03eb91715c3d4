"""Reference routes that only the tests read: each cross-checks a route of the package.

* ``vacuum_covariance``: the vacuum state, the identity in this convention;
* ``gaussian_log_pdf``: the normalized zero-mean Gaussian log density, against which
  the record likelihood is checked;
* ``full_output_covariance_closed``: the post-beam-splitter covariance from its
  closed-form blocks, against which the step-by-step pipeline is checked.
"""

import math

import numpy as np

from cvlbi.core import (
    CovarianceMatrix,
    QuadratureOrdering,
    ValidationError,
    _check_positive_definite,
)
from cvlbi.interferometer import OUTPUT_ORDERING, InterferometerConfig, abbreviations


def vacuum_covariance(*modes: str) -> CovarianceMatrix:
    """Vacuum state on the given modes (identity in this convention)."""
    ordering = QuadratureOrdering.interleaved(*modes)
    return CovarianceMatrix(ordering, np.eye(ordering.dim))


def gaussian_log_pdf(v: CovarianceMatrix, xs: np.ndarray) -> np.ndarray:
    """Log density of the zero-mean Gaussian with covariance V at each row of xs.

    log P(x) = -x^T V^-1 x / 2 - log((2 pi)^d det V) / 2, the normalized density
    (the Monte Carlo integral of exp(log_pdf) over R^d is 1; see tests). ``xs``
    is an (n, d) outcome array; the result has shape (n,).
    """
    xs = np.asarray(xs, dtype=float)
    d = v.dim
    if xs.ndim != 2 or xs.shape[1] != d:
        raise ValidationError(f"outcome array shape {xs.shape} does not match dimension {d}")
    _check_positive_definite(v.entries, "measurement covariance")
    chol = np.linalg.cholesky(v.entries)
    half_logdet = float(np.sum(np.log(np.diag(chol))))
    ys = np.linalg.solve(chol, xs.T)
    quad = np.sum(ys * ys, axis=0)
    return -0.5 * quad - half_logdet - 0.5 * d * math.log(2.0 * math.pi)


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
