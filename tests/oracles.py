"""Reference routes that only the tests read: each cross-checks a route of the package.

* ``vacuum_covariance``: the vacuum state, the identity in this convention;
* ``gaussian_log_pdf``: the normalized zero-mean Gaussian log density, against which
  the record likelihood is checked;
* ``full_output_covariance_closed``: the post-beam-splitter covariance from its
  closed-form blocks, against which the step-by-step pipeline is checked;
* ``block_basis``, ``block_betas`` and ``block_fisher``: V_r as two 2x2 blocks and the
  Fisher information in closed form, against which ``fisher_analytic`` is checked;
  ``fisher_decimal`` evaluates the trace identity in 50-digit arithmetic;
* ``linear_estimate`` and ``linear_estimate_covariance``: an estimator of g whose
  mean and covariance are exact at every shot count, against which sampled records
  are checked;
* ``circle_maximum``: the likelihood maximum on the unit circle in closed form,
  against which the MLE's boundary polish is checked.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

from cvlbi.core import (
    CovarianceMatrix,
    QuadratureOrdering,
    ValidationError,
    _check_positive_definite,
)
from cvlbi.interferometer import (
    _G1_SLOTS,
    _G2_SLOTS,
    OUTPUT_ORDERING,
    InterferometerConfig,
    MeasuredModel,
    abbreviations,
)


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


# V_r = alpha I + sqrt(n (n + 1)) (cos(theta) A + sin(theta) B) + gamma (g1 G1 + g2 G2) on
# (x_A1, p_A2, x_B1, p_B2), with alpha = 1 + n + gamma, gamma = eps / 2, A = sx (x) sz,
# B = sx (x) sx, G1 = sx (x) I and G2 = -sy (x) sy (the package's _G1_SLOTS, _G2_SLOTS).
# A and B commute with G1 and G2, so V_r splits into two 2x2 blocks C_+ and C_-, in a
# basis that depends on theta alone, with C_s = beta_s I + gamma (g1 tau1 + g2 tau2).
_A = np.array([[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
TAU = (np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[0.0, -1.0], [-1.0, 0.0]]))


def block_basis(theta: float) -> np.ndarray:
    """Orthogonal Q(theta) with Q^T V_r Q = diag(C_+, C_-), C_s = beta_s I + gamma (g . tau).

    Its columns are h (x) w with h_+- = (1, +-1)/sqrt 2, w_+ = (cos theta/2, sin theta/2)
    and w_- = (-sin theta/2, cos theta/2): block + is h_+ (x) w_+, h_- (x) w_-, and block
    - is h_+ (x) w_-, -h_- (x) w_+, the sign giving both blocks the same tau.
    """
    h_plus, h_minus = np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, -1.0]) / math.sqrt(2.0)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    w_plus, w_minus = np.array([c, s]), np.array([-s, c])
    return np.column_stack([
        np.kron(h_plus, w_plus), np.kron(h_minus, w_minus),
        np.kron(h_plus, w_minus), -np.kron(h_minus, w_plus),
    ])


def block_betas(eps: float, n_bar: float) -> tuple[float, float]:
    """(beta_+, beta_-): 1 + n +- sqrt(n (n + 1)) + eps / 2, beta_- free of cancellation."""
    root = math.sqrt(n_bar * (n_bar + 1.0))
    gamma = eps / 2.0
    return 1.0 + n_bar + root + gamma, (1.0 + n_bar) / (1.0 + n_bar + root) + gamma


def block_fisher(eps: float, g1: float, g2: float, n_bar: float) -> np.ndarray:
    """F = sum_s gamma^2 [I / D_s + 2 gamma^2 g g^T / D_s^2], D_s = beta_s^2 - gamma^2 |g|^2.

    The zero-mean Gaussian trace identity per block (Kay, Fundamentals of Statistical
    Signal Processing: Estimation Theory, 1993, sec. 3.9); theta does not appear.
    """
    gamma, r, g = eps / 2.0, math.hypot(g1, g2), np.array([g1, g2])
    f = np.zeros((2, 2))
    for beta in block_betas(eps, n_bar):
        delta = (beta - gamma * r) * (beta + gamma * r)
        f += gamma**2 * (np.eye(2) / delta + 2.0 * gamma**2 * np.outer(g, g) / delta**2)
    return f


def fisher_decimal(eps: float, g1: float, g2: float, n_bar: float) -> np.ndarray:
    """F_kl = tr(V^-1 D_k V^-1 D_l) / 2 at theta = 0, rounded to floats from 50 digits.

    V_r is built and solved by Gauss-Jordan elimination in ``decimal`` arithmetic from
    the exact values of the float inputs; theta drops out of F (``block_fisher``).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        eps, g1, g2, n = map(Decimal, (eps, g1, g2, n_bar))
        gamma, root = eps / 2, (n * (n + 1)).sqrt()
        a, s1, s2 = (m.astype(int).tolist() for m in (_A, _G1_SLOTS, _G2_SLOTS))
        v = [
            [(1 + n + gamma) * (i == j) + root * a[i][j] + gamma * (g1 * s1[i][j] + g2 * s2[i][j])
             for j in range(4)]
            for i in range(4)
        ]
        solved = []
        for slots in (s1, s2):
            rows = [v[i] + [gamma * x for x in slots[i]] for i in range(4)]
            for c in range(4):
                pivot = max(range(c, 4), key=lambda r: abs(rows[r][c]))
                rows[c], rows[pivot] = rows[pivot], rows[c]
                for r in range(4):
                    if r != c:
                        factor = rows[r][c] / rows[c][c]
                        rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
            solved.append([[x / row[i] for x in row[4:]] for i, row in enumerate(rows)])
        return np.array([
            [float(sum(x[i][j] * y[j][i] for i in range(4) for j in range(4)) / 2) for y in solved]
            for x in solved
        ])


def _linear_terms(model: MeasuredModel):
    """A_k = V_0^-1 D_k V_0^-1 / 2 (2 x 4 x 4), F(0) with F(0)_kl = tr(A_k D_l), and tr(A_k V_0)."""
    v0_inv = np.linalg.inv(model.v0)
    d = np.stack([model.d1, model.d2])
    a = 0.5 * v0_inv @ d @ v0_inv
    return a, np.einsum("kij,lji->kl", a, d), np.einsum("kij,ji->k", a, model.v0)


def linear_estimate(model: MeasuredModel, moments: np.ndarray) -> np.ndarray:
    """The score step from g = 0 for each second moment S in ``moments`` (R x 4 x 4): R x 2.

    g_lin = F(0)^-1 s_0(S), s_0,k(S) = [tr(V_0^-1 D_k V_0^-1 S) - tr(V_0^-1 D_k)] / 2.
    V_r is linear in g, so E s_0(S) = F(0) g, and g_lin is unbiased at every shot
    count: generalised least squares for a covariance linear in its parameters
    (T. W. Anderson, Ann. Statist. 1, 135, 1973).
    """
    a, f0, offset = _linear_terms(model)
    scores = np.einsum("kij,rji->rk", a, moments) - offset
    return np.linalg.solve(f0, scores.T).T


def linear_estimate_covariance(model: MeasuredModel, g, shots: int) -> np.ndarray:
    """Exact covariance F(0)^-1 C F(0)^-1 / M of ``linear_estimate`` over records of M shots.

    C_kl = 2 tr(A_k V A_l V) with V = V_r(g), from the second moments of a Wishart matrix.
    """
    a, f0, _ = _linear_terms(model)
    av = a @ model.covariance(*g)
    f0_inv = np.linalg.inv(f0)
    return f0_inv @ (2.0 * np.einsum("kij,lji->kl", av, av)) @ f0_inv / shots


def circle_maximum(model: MeasuredModel, s: np.ndarray) -> np.ndarray:
    """The point g* of the unit circle where second moment S has its greatest likelihood.

    On |g| = 1 the eigenvalues of V_r(g) do not depend on g, so log det V_r is constant
    there and V_r(g)^-1 = A + g1 M_1 + g2 M_2 is affine in g, with
    M_k = (V_r(e_k)^-1 - V_r(-e_k)^-1) / 2. The per-shot negative log-likelihood on the
    circle is then c_0 + c.g / 2 with c_k = tr(M_k S), least at g* = -c / |c|.
    """
    m = [np.linalg.inv(model.covariance(*e)) - np.linalg.inv(model.covariance(*-e)) for e in np.eye(2)]
    c = np.array([np.trace(mk @ s) for mk in m]) / 2.0
    return -c / np.linalg.norm(c)
