"""Asymptotic bias and variance constants of the MDPD tail estimator.

The limiting normal law of the estimator involves three constants: the
curvature eta_star, the bias coefficient mu and the variance sigma2.  Their
integrands are finite sums of powers and logs, so all have exact closed
forms; sigma2 also has a Gaussian-process Monte Carlo route.  Each of its
replicates is a fixed-weight sum of independent normals, so by the Ito
isometry on its grid it is drawn exactly in law as one N(0, v).

All routines require the limiting uncensored proportion
p = gamma2/(gamma1+gamma2) to exceed 1/2 where noted.  The variance
integral additionally needs p*(1 - gamma1 + alpha*(1+gamma1)) > 1/2,
otherwise one of its component integrals diverges; this is checked and
reported rather than returning a spurious number.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .sample_model import ModelParams, _check_alpha


def _phi_terms(alpha: float, gamma1: float):
    """The bias kernel phi and its tail integral phi* as power-log term lists.

    phi(x) = scale (A - B log x) x^-decay, x >= 1, changes sign once, at
    x = exp(A/B); phi*(x) = int_x^inf t^(-1/gamma1) phi(t) dt = scale x^-rho
    ((A - B log x)/rho - B/rho^2), rho = (1+alpha)(1+gamma1)/gamma1 - 1.
    A term (coef, exponent, log_power) is coef * x^exponent * (log x)^log_power.
    """
    scale = alpha / gamma1 ** (alpha + 3)
    a_lin = gamma1 * (1.0 + alpha + alpha * gamma1)
    b_lin = alpha * (1.0 + gamma1)
    decay = (alpha + gamma1 + alpha * gamma1) / gamma1
    rho = (1.0 + alpha) * (1.0 + gamma1) / gamma1 - 1.0
    phi = ((scale * a_lin, -decay, 0), (-scale * b_lin, -decay, 1))
    star = ((scale * (a_lin / rho - b_lin / rho ** 2), -rho, 0),
            (-scale * b_lin / rho, -rho, 1))
    return phi, star


def _laplace(terms, rate: float) -> float:
    """int_1^inf x^(-rate) sum c x^e (log x)^m dx = sum c / (rate - (e+1))^(m+1).

    Exact for m <= 1 (m! = 1) when every rate - (e+1) is positive.
    """
    return sum(c / (rate - (e + 1.0)) ** (m + 1) for c, e, m in terms)


def _phi_star(x, alpha: float, gamma1: float):
    """phi*(x) = int_x^inf t^(-1/gamma1) phi(t) dt from its term list.  Vectorized over x."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 1):
        raise ValueError("phi_star domain is x >= 1")
    out = sum(c * x ** e * np.log(x) ** m for c, e, m in _phi_terms(alpha, gamma1)[1])
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

    At tau1 = 0 the kernel is its limit log(x)/gamma1^2.  By parts (the kernel
    is 0 at x = 1), mu = gamma1^-2 int_1^inf x^(tau1/gamma1 - 1) phi*(x) dx, a
    :func:`_laplace` integral that does not divide by tau1.
    """
    if not -np.inf < tau1 <= 0:
        raise ValueError("tau1 must be nonpositive and finite")
    if not (0 < gamma1 < np.inf and 0 < alpha < np.inf):
        raise ValueError("gamma1 and alpha must be positive and finite")
    return _laplace(_phi_terms(alpha, gamma1)[1], 1.0 - tau1 / gamma1) / gamma1 ** 2


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

    psi1 = x^(1/gamma2) phi - q x^(1/gamma) phi* and psi2 = x^(1/gamma) phi*:
    the term lists of :func:`_phi_terms`, shifted.
    """
    phi, star = _phi_terms(alpha, gamma1)
    gamma2, q, gamma = model.gamma2, model.q, model.gamma
    psi1 = tuple((c, e + 1.0 / gamma2, m) for c, e, m in phi) + \
        tuple((-q * c, e + 1.0 / gamma, m) for c, e, m in star)
    psi2 = tuple((c, e + 1.0 / gamma, m) for c, e, m in star)
    return psi1, psi2


def _g_moments(terms, gamma: float) -> tuple[float, float]:
    """(int_0^1 G ds, int_0^1 G^2 ds) for G(s) = int_1^(s^-gamma) psi(x) dx, exactly.

    int G ds = int_1^inf x^(-1/gamma) psi(x) dx is :func:`_laplace` at rate 1/gamma.
    With x = e^v, psi(x) dx = f(v) dv for f(v) = sum c e^(kappa v) v^m, kappa =
    e + 1 and m <= 1, and by Fubini int G^2 ds = 2 int_0^inf f(v) e^(-v/gamma)
    int_0^v f(u) du dv, whose (i, j) term is 1/(a b^(m_j+1)) times 1 if m_i = 0,
    and times (m_j+1)/b + 1/a if m_i = 1; here a = 1/gamma - kappa_i and b =
    a - kappa_j.  No kappa is a divisor, so kappa = 0 needs no branch.  The
    smallest b, 1/gamma - 2 max(kappa), is 2/(p gamma1) times the margin of
    :func:`_check_variance_domain`'s second check, so every a and b is positive.
    """
    rate = 1.0 / gamma
    square = 0.0
    for ci, ei, mi in terms:
        a = rate - (ei + 1.0)
        for cj, ej, mj in terms:
            b = a - (ej + 1.0)
            pair = 1.0 / (a * b ** (mj + 1))
            square += ci * cj * ((mj + 1) * pair / b + pair / a if mi else pair)
    return _laplace(terms, rate), 2.0 * square


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# cells of the Monte Carlo grid evaluated together: the (chunk, 8) node
# arrays of one chunk, 128 KiB each, stay in cache while psi is built
_GRID_CHUNK = 2048


@functools.cache
def _gauss_legendre_8() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 8-point Gauss-Legendre on [-1, 1], built on first use."""
    nodes, wts = np.polynomial.legendre.leggauss(8)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


def _g_on_grid(alpha: float, gamma1: float, model: ModelParams,
               config: GaussianOracleConfig):
    """G1 and G2 at the cell midpoints of the Monte Carlo grid.

    The grid is s_j = (j/M)^grade on [0, 1]; G_m(s) = int_1^(s^-gamma)
    psi_m(x) dx is built cell by cell in x = s^-gamma with 8-point
    Gauss-Legendre.  The cells are evaluated _GRID_CHUNK at a time, in
    buffers that every chunk reuses: each distinct exponent e of the
    power-log term lists gets one x^e = exp(e*log x) over the chunk's
    nodes, shared by the terms of psi1 and psi2 that carry it, and each psi
    sums its terms from 0 in list order as c*x^e or (c*x^e)*log x.  So
    every value has the bits of the term-by-term sum over the whole grid.
    Each cell's integral goes into one (2, M) array, summed from x = 1
    upwards by one cumulative sum.  Memory is O(M + chunk).  Returns
    (ds, G1, G2, a) with the cell widths ds and a = _phi_star(1).
    """
    psi_terms = _psi_term_lists(alpha, gamma1, model)
    exponents = {e for terms in psi_terms for _, e, _ in terms}
    m = config.grid_points
    s = (np.arange(m + 1) / m) ** config.grade
    s_mid = 0.5 * (s[:-1] + s[1:])
    nodes, wts = _gauss_legendre_8()
    # x at the midpoints, decreasing in j, then 1: cell j is [edges[j+1], edges[j]]
    edges = np.append(s_mid ** (-model.gamma), 1.0)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[:-1] - edges[1:])
    cells = np.empty((2, m))
    # chunks start at multiples of _GRID_CHUNK and the last one takes the
    # tail, so that BLAS computes each row of psi @ wts as over the whole
    # grid: it takes another path for the last rows of a short matrix
    starts = list(range(0, max(m - _GRID_CHUNK, 0) + 1, _GRID_CHUNK))
    # one set of buffers, sized for the last and longest chunk, serves every
    # chunk: a fresh temporary of this size per operation costs new page
    # faults whenever glibc hands the freed one back to the system, which
    # depends on the process's history
    buffers = np.empty((3 + len(exponents), m - starts[-1], 8))
    for lo, hi in zip(starts, starts[1:] + [m]):
        chunk = slice(lo, hi)
        log_x, term, psi, *x_pows = buffers[:, :hi - lo]
        np.multiply(half[chunk, None], nodes, out=log_x)
        log_x += mid[chunk, None]
        np.log(log_x, out=log_x)
        powers = {e: np.exp(np.multiply(e, log_x, out=p), out=p)
                  for e, p in zip(exponents, x_pows)}
        for row, terms in zip(cells, psi_terms):
            psi[...] = 0.0
            for c, e, k in terms:
                np.multiply(c, powers[e], out=term)
                if k:
                    term *= log_x
                psi += term
            np.matmul(psi, wts, out=row[chunk])
        cells[:, chunk] *= half[chunk]
    # cumulative int_1^{x_j} psi, summed cell by cell from x = 1 upwards
    g1, g2 = np.cumsum(cells[:, ::-1], axis=1)[:, ::-1]
    return np.diff(s), g1, g2, float(_phi_star(1.0, alpha, gamma1))


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
    standard error.  Work is O(M + r) and memory O(M + chunk + r), as
    :func:`_g_on_grid` builds G1 and G2 a chunk of cells at a time; v is
    reduced by numpy's pairwise sum, not BLAS, so the result is
    deterministic given the seed for any BLAS thread count.
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
