"""Asymptotic bias and variance constants of the MDPD tail estimator.

The limiting normal law of the estimator involves three constants: the
curvature eta_star, the bias coefficient mu and the variance sigma2.  Their
integrands, like _phi_star's, are finite sums of powers and logs, so all
have exact closed forms; sigma2 also has a Gaussian-process Monte Carlo route.
Each of its replicates is a fixed-weight sum of independent normals, so by
the Ito isometry on its grid it is drawn exactly in law as one N(0, v).

All routines require the limiting uncensored proportion
p = gamma2/(gamma1+gamma2) to exceed 1/2 where noted.  The variance
integral additionally needs p*(1 - gamma1 + alpha*(1+gamma1)) > 1/2,
otherwise one of its component integrals diverges; this is checked and
reported rather than returning a spurious number.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .sample_model import ModelParams, _check_alpha


def _phi_coeffs(alpha: float, gamma1: float) -> tuple[float, float, float, float]:
    """Coefficients of the bias kernel phi(x) = scale (A - B log x) x^-decay, x >= 1.

    Returns (scale, A, B, decay); phi decays to 0 and changes sign once, at
    x = exp(A / B).
    """
    scale = alpha / gamma1 ** (alpha + 3)
    a_lin = gamma1 * (1.0 + alpha + alpha * gamma1)
    b_lin = alpha * (1.0 + gamma1)
    decay = (alpha + gamma1 + alpha * gamma1) / gamma1
    return scale, a_lin, b_lin, decay


def _phi_star(x, alpha: float, gamma1: float):
    """Tail integral int_x^inf t^(-1/gamma1) phi(t) dt, in closed form.

    The integrand is t^(-c) (A - B log t) with c = (1+alpha)(1+gamma1)/gamma1,
    so the antiderivative is elementary.  Vectorized over x.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1):
        raise ValueError("phi_star domain is x >= 1")
    scale, a_lin, b_lin, _ = _phi_coeffs(alpha, gamma1)
    c = (1.0 + alpha) * (1.0 + gamma1) / gamma1
    out = scale * x ** (1.0 - c) * (
        (a_lin - b_lin * np.log(x)) / (c - 1.0) - b_lin / (c - 1.0) ** 2)
    return float(out) if out.ndim == 0 else out


def eta_star(alpha: float, gamma1: float) -> float:
    """Curvature constant of the estimating equation at the true index."""
    if not 0 < gamma1 < np.inf:
        raise ValueError("gamma1 must be positive and finite")
    _check_alpha(alpha)
    u = alpha * (1.0 + gamma1)
    return (1.0 + alpha) / gamma1 ** (2.0 + alpha) * (u * u + 1.0) / (u + 1.0) ** 3


def mu(alpha: float, gamma1: float, tau1: float) -> float:
    """Bias constant: int_1^inf x^(-1/gamma1) (x^(tau1/gamma1)-1)/(gamma1 tau1) phi(x) dx.

    At tau1 = 0 the kernel is its limit log(x)/gamma1^2.  With x = e^v the
    integral is elementary, and its closed form does not divide by tau1.
    """
    if not -np.inf < tau1 <= 0:
        raise ValueError("tau1 must be nonpositive and finite")
    if not (0 < gamma1 < np.inf and 0 < alpha < np.inf):
        raise ValueError("gamma1 and alpha must be positive and finite")
    scale, a_lin, b_lin, decay = _phi_coeffs(alpha, gamma1)
    rho = decay + 1.0 / gamma1 - 1.0
    d = tau1 / gamma1
    return scale / gamma1 ** 2 * (a_lin / (rho * (rho - d))
                                  - b_lin * (2.0 * rho - d) / (rho ** 2 * (rho - d) ** 2))


def _check_variance_domain(alpha: float, gamma1: float, gamma2: float) -> ModelParams:
    _check_alpha(alpha)
    model = ModelParams(gamma1=gamma1, gamma2=gamma2)
    if model.p <= 0.5:
        raise ValueError("variance formula requires p > 1/2")
    if model.p * (1.0 - gamma1 + alpha * (1.0 + gamma1)) <= 0.5:
        raise ValueError(
            "variance integral diverges: need p*(1 - gamma1 + alpha*(1+gamma1)) > 1/2")
    return model


def _psi_term_lists(alpha: float, gamma1: float, model: ModelParams):
    """psi1 and psi2 as power-log term lists [(coef, exponent, log_power)].

    Both kernels are finite sums of coef * x^exponent * (log x)^power,
    power 0 or 1, so their integrals are elementary.
    """
    scale, a_lin, b_lin, decay = _phi_coeffs(alpha, gamma1)
    c = (1.0 + alpha) * (1.0 + gamma1) / gamma1
    phi_terms = ((scale * a_lin, -decay, 0), (-scale * b_lin, -decay, 1))
    star_terms = ((scale * (a_lin / (c - 1.0) - b_lin / (c - 1.0) ** 2), 1.0 - c, 0),
                  (-scale * b_lin / (c - 1.0), 1.0 - c, 1))
    gamma2, q, gamma = model.gamma2, model.q, model.gamma
    psi1 = tuple((cc, e + 1.0 / gamma2, m) for cc, e, m in phi_terms) + \
        tuple((-q * cc, e + 1.0 / gamma, m) for cc, e, m in star_terms)
    psi2 = tuple((cc, e + 1.0 / gamma, m) for cc, e, m in star_terms)
    return psi1, psi2


def _g_moments(terms, gamma: float) -> tuple[float, float]:
    """(int_0^1 G ds, int_0^1 G^2 ds) for G(s) = int_1^(s^-gamma) psi(x) dx, exactly.

    With x = e^v, psi(x) dx = f(v) dv for f(v) = sum c e^(kappa v) v^m, kappa = e + 1
    and m <= 1 (so m! = 1).  Then int G ds = int_0^inf f(v) e^(-v/gamma) dv =
    sum c/a^(m+1), and by Fubini int G^2 ds = 2 int_0^inf f(v) e^(-v/gamma) int_0^v
    f(u) du dv, whose (i, j) term is 1/(a b^(m_j+1)) times 1 if m_i = 0, and times
    (m_j+1)/b + 1/a if m_i = 1; here a = 1/gamma - kappa_i and b = a - kappa_j.
    No kappa is a divisor, so kappa = 0 needs no branch.  The smallest b,
    1/gamma - 2 max(kappa), is 2/(p gamma1) times the margin of
    :func:`_check_variance_domain`'s second check, so every a and b is positive.
    """
    rate = 1.0 / gamma
    mean = square = 0.0
    for ci, ei, mi in terms:
        a = rate - (ei + 1.0)
        mean += ci / a ** (mi + 1)
        for cj, ej, mj in terms:
            b = a - (ej + 1.0)
            pair = 1.0 / (a * b ** (mj + 1))
            square += ci * cj * ((mj + 1) * pair / b + pair / a if mi else pair)
    return mean, 2.0 * square


def sigma_squared(alpha: float, gamma1: float, gamma2: float) -> float:
    """Variance constant of the limiting normal law, in closed form.

    The double integral over the min-covariance kernel reduces, through
    the substitution s = x^(-1/gamma) and the Ito isometry, to single
    integrals of G_m(s) = int_1^(s^-gamma) psi_m(x) dx, which
    :func:`_g_moments` gives exactly:

        sigma2 = p*int_0^1 G1^2 ds + (q/gamma1^2)*int_0^1 G2^2 ds
                 - 2*a*p*int_0^1 G1 ds + p*a^2,   a = _phi_star(1).
    """
    model = _check_variance_domain(alpha, gamma1, gamma2)
    p, q, gamma = model.p, model.q, model.gamma
    a_const = float(_phi_star(1.0, alpha, gamma1))
    psi1_terms, psi2_terms = _psi_term_lists(alpha, gamma1, model)
    mean1, square1 = _g_moments(psi1_terms, gamma)
    square2 = _g_moments(psi2_terms, gamma)[1]
    return (p * square1 + (q / gamma1 ** 2) * square2
            - 2.0 * a_const * p * mean1 + p * a_const ** 2)


@dataclass(frozen=True)
class GaussianOracleConfig:
    """Discretization and replication controls for the Monte Carlo variance."""

    grid_points: int = 8192
    replicates: int = 4000
    seed: int = 0
    grade: float = 6.0  # grid grading exponent; clusters points near s = 0

    def __post_init__(self):
        if self.grid_points < 1000:
            raise ValueError("grid_points must be >= 1000")
        if self.replicates < 1000:
            raise ValueError("replicates must be >= 1000")
        if self.grade < 1.0:
            raise ValueError("grade must be >= 1")


def _g_on_grid(alpha: float, gamma1: float, model: ModelParams,
               config: GaussianOracleConfig):
    """G1 and G2 at the cell midpoints of the Monte Carlo grid.

    The grid is s_j = (j/M)^grade on [0, 1]; G_m(s) = int_1^(s^-gamma)
    psi_m(x) dx is built cell by cell in x = s^-gamma with 8-point
    Gauss-Legendre, from the power-log term lists evaluated as
    sum c * exp(e*log x) * (log x)^m.  Returns (ds, G1, G2, a) with the
    cell widths ds and a = _phi_star(1).
    """
    psi1_terms, psi2_terms = _psi_term_lists(alpha, gamma1, model)
    m = config.grid_points
    s = (np.arange(m + 1) / m) ** config.grade
    s_mid = 0.5 * (s[:-1] + s[1:])
    nodes, wts = np.polynomial.legendre.leggauss(8)
    # x at the midpoints, decreasing in j, then 1: cell j is [edges[j+1], edges[j]]
    edges = np.append(s_mid ** (-model.gamma), 1.0)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[:-1] - edges[1:])
    log_x = np.log(mid[:, None] + half[:, None] * nodes[None, :])

    def g_at_midpoints(terms) -> np.ndarray:
        # cumulative int_1^{x_j} psi, summed cell by cell from x = 1 upwards
        psi = sum(c * np.exp(e * log_x) * log_x ** k for c, e, k in terms)
        return np.cumsum((half * (psi @ wts))[::-1])[::-1]

    return (np.diff(s), g_at_midpoints(psi1_terms), g_at_midpoints(psi2_terms),
            float(_phi_star(1.0, alpha, gamma1)))


def sigma_squared_mc(alpha: float, gamma1: float, gamma2: float,
                     config: GaussianOracleConfig = GaussianOracleConfig()
                     ) -> tuple[float, float]:
    """Monte Carlo estimate of sigma_squared from the Gaussian limit process.

    On a graded grid of [0,1] (s_j = (j/M)^grade -- the integrand of the
    variance has an endpoint singularity at s = 0, so a uniform grid
    underestimates badly), each replicate of the limiting stochastic
    integrals is sum_j c1_j Z1_j + sum_j c2_j Z2_j over independent standard
    normal increments, with c1 = sqrt(p ds)(G1 - a) and c2 = sqrt(q ds) G2/gamma1.
    A fixed-weight sum of independent standard normals is exactly N(0, v)
    with v = |c1|^2 + |c2|^2 (the Ito isometry on the grid), so the r
    replicate totals are drawn as sqrt(v) times r standard normals from one
    Philox(SeedSequence(seed)) stream.  Returns their sample variance, whose
    law is v chi2(r-1)/(r-1) as for the path-wise draw, with its Monte Carlo
    standard error.  Work and memory are O(M + r); v is reduced by numpy's
    pairwise sum, not BLAS, so the result is deterministic given the seed
    for any BLAS thread count.
    """
    model = _check_variance_domain(alpha, gamma1, gamma2)
    ds, g1, g2, a_const = _g_on_grid(alpha, gamma1, model, config)
    v = (model.p * np.sum((g1 - a_const) ** 2 * ds)
         + model.q / gamma1 ** 2 * np.sum(g2 ** 2 * ds))
    r = config.replicates
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    totals = np.sqrt(v) * rng.standard_normal(r)
    estimate = float(totals.var(ddof=1))
    # variance of a sample variance of Gaussian draws
    stderr = estimate * np.sqrt(2.0 / (r - 1))
    return estimate, float(stderr)


def asymptotic_ci(gamma1_hat: float, alpha: float, k: int,
                  model: ModelParams, level: float = 0.95) -> tuple[float, float]:
    """Normal-theory confidence interval for the tail index.

    Inverts the limit law with the bias term set to zero (undersmoothed-k
    convention): half-width = z * (1 + 1/alpha) * sigma / (eta_star * sqrt(k)).
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"invalid level {level}")
    if alpha <= 0:
        raise ValueError("asymptotic_ci requires alpha > 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    sigma = np.sqrt(sigma_squared(alpha, model.gamma1, model.gamma2))
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * (1.0 + 1.0 / alpha) * sigma / (eta_star(alpha, model.gamma1) * np.sqrt(k))
    return gamma1_hat - half, gamma1_hat + half
