"""Reference routes that only the tests read: each cross-checks a route of the package.

* ``vacuum_covariance``: the vacuum state, the identity in this convention;
* ``gaussian_log_pdf``: the normalized zero-mean Gaussian log density, against which
  the record likelihood is checked;
* ``full_output_covariance_closed``: the post-beam-splitter covariance from its
  closed-form blocks, against which the step-by-step pipeline is checked;
* ``block_basis``, ``block_betas`` and ``block_fisher``: V_r as two 2x2 blocks and the
  Fisher information in closed form, against which ``fisher_analytic`` is checked;
  ``fisher_decimal`` evaluates the trace identity in 50-digit arithmetic;
* ``block_nll_and_grad``: the per-shot likelihood and its gradient from the block
  statistics of a second moment, against which the MLE's 4x4 evaluator is checked;
* ``block_wishart``: the two block second moments of a record drawn directly, three
  random numbers a block, against which ``sample_records`` is checked;
* ``linear_estimate`` and ``linear_estimate_covariance``: an estimator of g whose
  mean and covariance are exact at every shot count, against which sampled records
  are checked;
* ``circle_maximum``: the likelihood maximum on the unit circle in closed form,
  against which the MLE's boundary polish is checked;
* ``published_bound``: the five schemes' lowest-order bounds, typed from the
  published analyses, against which the ``compare`` table is checked;
* ``heterodyne_fisher``: the Fisher information of heterodyne detection at each site,
  against which ``fisher_analytic`` with a vacuum resource and the LOCAL bound are checked;
* ``direct_detection_fisher``: the exact Fisher information of direct detection, against
  which the DD bound and the homodyne Fisher information are checked.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

from cvlbi.core import (
    CovarianceMatrix,
    ValidationError,
    _check_positive_definite,
    interleaved,
)
from cvlbi.interferometer import (
    _SLOTS,
    OUTPUT_ORDERING,
    InterferometerConfig,
    abbreviations,
    beam_splitter_matrix,
)
from cvlbi.states import SourceParams, astronomical_covariance


def vacuum_covariance(*modes: str) -> CovarianceMatrix:
    """Vacuum state on the given modes (identity in this convention)."""
    names = interleaved(*modes)
    return CovarianceMatrix(names, np.eye(len(names)))


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
# B = sx (x) sx, G1 = sx (x) I and G2 = -sy (x) sy (the package's _SLOTS).
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


def block_moments(theta: float, s: np.ndarray) -> np.ndarray:
    """The blocks (S_+, S_-) of Q^T S Q for each second moment s[i] (n x 4 x 4): n x 2 x 2 x 2."""
    q = block_basis(theta)
    b = q.T @ s @ q
    return np.stack([b[:, :2, :2], b[:, 2:, 2:]], axis=1)


def block_statistics(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, u) of each pair of blocks (n x 2 x 2 x 2): T[i, s] = tr S_s (n x 2) and
    u[i, s, k] = tr(tau_k S_s) (n x 2 x 2), all a record's likelihood reads."""
    return np.trace(blocks, axis1=2, axis2=3), np.einsum("kab,isba->isk", np.stack(TAU), blocks)


def block_nll_and_grad(cfg: InterferometerConfig, s: np.ndarray, g: np.ndarray):
    """Per-shot negative log-likelihood of each second moment s[i] (n x 4 x 4) at the
    coherence g[i] (n x 2), and its gradient in g: (values[n], grads[n, 2]).

    C_s = beta_s I + gamma g.tau has det Delta_s = (beta_s - gamma |g|)(beta_s + gamma |g|)
    and inverse (beta_s I - gamma g.tau) / Delta_s, so with T_s = tr S_s and
    u_s,k = tr(tau_k S_s) the value is
    sum_s [log Delta_s + (beta_s T_s - gamma g.u_s) / Delta_s] / 2 + 2 log 2 pi.
    """
    src, res = cfg.source, cfg.resource
    gamma = src.epsilon / 2.0
    t, u = block_statistics(block_moments(res.theta, s))
    r = np.hypot(g[:, 0], g[:, 1])
    values, grads = 2.0 * math.log(2.0 * math.pi), np.zeros_like(g)
    for k, beta in enumerate(block_betas(src.epsilon, res.n_bar)):
        delta = (beta - gamma * r) * (beta + gamma * r)
        quad = (beta * t[:, k] - gamma * np.vecdot(g, u[:, k])) / delta
        values = values + 0.5 * (np.log(delta) + quad)
        # d Delta / d g = -2 gamma^2 g and d(gamma g.u) / d g = gamma u
        grads += (gamma**2 * g * (quad - 1.0)[:, None] - 0.5 * gamma * u[:, k]) / delta[:, None]
    return values, grads


def block_wishart(cfg: InterferometerConfig, shots: int, count: int, rng) -> np.ndarray:
    """``count`` draws of the blocks (S_+, S_-) of a ``shots``-shot record's second moment:
    count x 2 x 2 x 2, each block Wishart_2(C_s, M) / M and the two independent.

    The Bartlett decomposition W = L A A^T L^T with L L^T = C_s and A lower triangular,
    sqrt(chi^2_M) and sqrt(chi^2_{M-1}) on its diagonal and one standard normal below it
    (Smith and Hocking, Applied Statistics AS 53, 1972). M >= 2: numpy's chi-square
    takes no 0 degrees of freedom.
    """
    src, res = cfg.source, cfg.resource
    coherence = src.epsilon / 2.0 * (src.g1 * TAU[0] + src.g2 * TAU[1])
    a = np.zeros((count, 2, 2, 2))
    a[..., 0, 0] = np.sqrt(rng.chisquare(shots, (count, 2)))
    a[..., 1, 1] = np.sqrt(rng.chisquare(shots - 1, (count, 2)))
    a[..., 1, 0] = rng.standard_normal((count, 2))
    chol = np.stack([
        np.linalg.cholesky(beta * np.eye(2) + coherence)
        for beta in block_betas(src.epsilon, res.n_bar)
    ])
    la = chol @ a
    return la @ la.swapaxes(-1, -2) / shots


def fisher_decimal(eps: float, g1: float, g2: float, n_bar: float) -> np.ndarray:
    """F_kl = tr(V^-1 D_k V^-1 D_l) / 2 at theta = 0, rounded to floats from 50 digits.

    V_r is built and solved by Gauss-Jordan elimination in ``decimal`` arithmetic from
    the exact values of the float inputs; theta drops out of F (``block_fisher``).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        eps, g1, g2, n = map(Decimal, (eps, g1, g2, n_bar))
        gamma, root = eps / 2, (n * (n + 1)).sqrt()
        a, s1, s2 = (m.astype(int).tolist() for m in (_A, *_SLOTS))
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


def _linear_terms(cfg: InterferometerConfig):
    """A_k = V_0^-1 D_k V_0^-1 / 2 (2 x 4 x 4), F(0) with F(0)_kl = tr(A_k D_l), and tr(A_k V_0)."""
    v0_inv = np.linalg.inv(cfg.v0)
    a = 0.5 * v0_inv @ cfg.d @ v0_inv
    return a, np.einsum("kij,lji->kl", a, cfg.d), np.einsum("kij,ji->k", a, cfg.v0)


def linear_estimate(cfg: InterferometerConfig, moments: np.ndarray) -> np.ndarray:
    """The score step from g = 0 for each second moment S in ``moments`` (R x 4 x 4): R x 2.

    g_lin = F(0)^-1 s_0(S), s_0,k(S) = [tr(V_0^-1 D_k V_0^-1 S) - tr(V_0^-1 D_k)] / 2.
    V_r is linear in g, so E s_0(S) = F(0) g, and g_lin is unbiased at every shot
    count: generalised least squares for a covariance linear in its parameters
    (T. W. Anderson, Ann. Statist. 1, 135, 1973).
    """
    a, f0, offset = _linear_terms(cfg)
    scores = np.einsum("kij,rji->rk", a, moments) - offset
    return np.linalg.solve(f0, scores.T).T


def linear_estimate_covariance(cfg: InterferometerConfig, g, shots: int) -> np.ndarray:
    """Exact covariance F(0)^-1 C F(0)^-1 / M of ``linear_estimate`` over records of M shots.

    C_kl = 2 tr(A_k V A_l V) with V = V_r(g), from the second moments of a Wishart matrix.
    """
    a, f0, _ = _linear_terms(cfg)
    av = a @ cfg.covariance(*g)
    f0_inv = np.linalg.inv(f0)
    return f0_inv @ (2.0 * np.einsum("kij,lji->kl", av, av)) @ f0_inv / shots


def circle_maximum(cfg: InterferometerConfig, s: np.ndarray) -> np.ndarray:
    """The point g* of the unit circle where second moment S has its greatest likelihood.

    On |g| = 1 the eigenvalues of V_r(g) do not depend on g, so log det V_r is constant
    there and V_r(g)^-1 = A + g1 M_1 + g2 M_2 is affine in g, with
    M_k = (V_r(e_k)^-1 - V_r(-e_k)^-1) / 2. The per-shot negative log-likelihood on the
    circle is then c_0 + c.g / 2 with c_k = tr(M_k S), least at g* = -c / |c|.
    """
    m = [np.linalg.inv(cfg.covariance(*e)) - np.linalg.inv(cfg.covariance(*-e)) for e in np.eye(2)]
    c = np.array([np.trace(mk @ s) for mk in m]) / 2.0
    return -c / np.linalg.norm(c)


#: the lowest-order single-shot trace-norm bounds as published, (coefficient, power of eps)
PUBLISHED_BOUNDS = {
    "CV_INF": (2.0, 2),  # 2 eps^2
    "CV_0": (1.0, 2),  # eps^2
    "DD": (1.0, 1),  # eps
    "LOCAL": (1.0, 2),  # eps^2
    "GJC12": (0.5, 1),  # eps / 2
}


def published_bound(scheme: str, eps: float) -> float:
    """The published bound of the scheme named ``scheme`` at eps: coeff * eps**power."""
    coeff, power = PUBLISHED_BOUNDS[scheme]
    return coeff * eps**power


def heterodyne_fisher(eps: float, g1: float, g2: float) -> np.ndarray:
    """Fisher information in (g1, g2) of heterodyne detection of the source at each site.

    The outcomes are zero-mean Gaussian with covariance S = (V_src(g) + I) / 2, so the
    trace identity gives F_kl = tr(S^-1 dS_k S^-1 dS_l) / 2. V_src is linear in g, and
    dS_k = (V_src(e_k) - V_src(0)) / 2 is exact.
    """
    def v_src(h1, h2):
        return astronomical_covariance(SourceParams(eps, h1, h2)).entries

    s_inv = np.linalg.inv((v_src(g1, g2) + np.eye(4)) / 2.0)
    ds = [(v_src(*e) - v_src(0.0, 0.0)) / 2.0 for e in np.eye(2)]
    return np.array([[np.trace(s_inv @ dk @ s_inv @ dl) / 2.0 for dl in ds] for dk in ds])


def direct_detection_fisher(eps: float, g1: float, g2: float) -> np.ndarray:
    """Fisher information in (g1, g2) per shot of direct detection of the source.

    A phase phi on B1, then ``beam_splitter_matrix()`` on (A1, B1), then a threshold
    detector on each output; half the shots take phi = 0 and half phi = pi / 2. A set S
    of output modes sees no click with probability P_S = 2^|S| / sqrt(det(V_S + I)), and
    the four outcome probabilities follow by inclusion and exclusion. V_src is linear in
    g, and dP_S = -P_S tr((V_S + I)^-1 dV_S) / 2 is exact.
    """
    def v_src(h1, h2):
        return astronomical_covariance(SourceParams(eps, h1, h2)).entries

    dv = [v_src(*e) - v_src(0.0, 0.0) for e in np.eye(2)]
    f = np.zeros((2, 2))
    for phi in (0.0, math.pi / 2.0):
        u = np.eye(4)
        u[2:, 2:] = [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        u = beam_splitter_matrix() @ u
        v, dv_out = u @ v_src(g1, g2) @ u.T, [u @ d @ u.T for d in dv]
        # P_S and dP_S for S = {1}, {2} and {1, 2}
        p_none, dp_none = np.empty(3), np.empty((3, 2))
        for i, modes in enumerate(([0, 1], [2, 3], [0, 1, 2, 3])):
            block = np.ix_(modes, modes)
            m = np.linalg.inv(v[block] + np.eye(len(modes)))
            p_none[i] = 2.0 ** (len(modes) // 2) * math.sqrt(np.linalg.det(m))
            dp_none[i] = [-0.5 * p_none[i] * np.trace(m @ d[block]) for d in dv_out]
        # outcomes (none, none), (click, none), (none, click), (click, click)
        signs = np.array([[0, 0, 1], [0, 1, -1], [1, 0, -1], [-1, -1, 1]])
        p = np.array([0.0, 0.0, 0.0, 1.0]) + signs @ p_none
        dp = signs @ dp_none
        f += 0.5 * dp.T @ (dp / p[:, None])
    return f
