"""Reference functions that only the tests use."""

import numpy as np
from scipy.integrate import quad

from tailcens import ContaminationSpec, MdpdWindow, ModelParams, OrderedSample, TailConfig
from tailcens.asymptotics import (_check_variance_domain, _g_on_grid, _phi_star,
                                  _psi_term_lists)

_QUAD_KW = dict(epsabs=1e-10, epsrel=1e-8, limit=200)


def mdpd_residual(gamma1: float, sample: OrderedSample, config: TailConfig) -> float:
    """Residual of the MDPD estimating equation at gamma1, alpha > 0."""
    if gamma1 <= 0:
        raise ValueError(f"gamma1={gamma1} must be > 0")
    return MdpdWindow(sample, config.k).residual(gamma1, config.alpha)


def phi(x, alpha: float, gamma1: float):
    """Bias kernel (alpha/gamma1^(alpha+3)) (A - B log x) x^-c on x >= 1.

    A = gamma1 (1 + alpha + alpha gamma1), B = alpha (1 + gamma1) and
    c = (alpha + gamma1 + alpha gamma1) / gamma1.  Vectorized over x.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1):
        raise ValueError("phi domain is x >= 1")
    a_lin = gamma1 * (1.0 + alpha + alpha * gamma1)
    b_lin = alpha * (1.0 + gamma1)
    decay = (alpha + gamma1 + alpha * gamma1) / gamma1
    out = alpha / gamma1 ** (alpha + 3) * (a_lin - b_lin * np.log(x)) * x ** (-decay)
    return float(out) if out.ndim == 0 else out


def mu_quad(alpha: float, gamma1: float, tau1: float) -> float:
    """The bias constant mu by adaptive quadrature of its integral in v = log x.

    At tau1 = 0 the kernel is its limit log(x)/gamma1^2.
    """
    if tau1 > 0:
        raise ValueError("tau1 must be nonpositive")
    if tau1 == 0.0:
        def kernel(v):
            return v / gamma1 ** 2
    else:
        def kernel(v):
            return np.expm1(tau1 * v / gamma1) / (gamma1 * tau1)

    # phi's coefficients, as in phi() above; every power of x = e^v folds
    # into one decaying exponential in v
    scale = alpha / gamma1 ** (alpha + 3)
    a_lin = gamma1 * (1.0 + alpha + alpha * gamma1)
    b_lin = alpha * (1.0 + gamma1)
    decay = (alpha + gamma1 + alpha * gamma1) / gamma1
    rate = 1.0 - 1.0 / gamma1 - decay

    def integrand(v):
        return np.exp(rate * v) * kernel(v) * scale * (a_lin - b_lin * v)

    return quad(integrand, 0.0, np.inf, **_QUAD_KW)[0]


def sigma_squared_quad(alpha: float, gamma1: float, gamma2: float) -> float:
    """The variance constant sigma2 by nested adaptive quadrature.

    Same decomposition as ``sigma_squared`` into integrals of
    G_m(s) = int_1^(s^-gamma) psi_m(x) dx, with the outer integrals in
    t = -log s.  The damping factor e^{-t/2} from ds is folded into the
    inner integrand, so what is squared is the bounded G(e^{-t}) e^{-t/2}.
    The outer integral stops at t <= 4000, so it loses the tail mass where
    the integrand decays slowly, near the edge of the variance domain.
    """
    model = _check_variance_domain(alpha, gamma1, gamma2)
    p, q, gamma = model.p, model.q, model.gamma
    a_const = float(_phi_star(1.0, alpha, gamma1))
    psi1_terms, psi2_terms = _psi_term_lists(alpha, gamma1, model)

    def g_damped(terms, t: float) -> float:
        # G(e^{-t}) e^{-t/2} = int_0^{gamma t} sum_j c_j e^{(e_j+1)v - t/2} v^m dv
        if t <= 0.0:
            return 0.0

        def integrand(v):
            return sum(cc * np.exp((e + 1.0) * v - 0.5 * t) * v ** m
                       for cc, e, m in terms)

        return quad(integrand, 0.0, gamma * t, **_QUAD_KW)[0]

    def tail_cutoff(terms, square: bool) -> float:
        # the outer integrand decays like e^{-rate t}
        growth = max(max(e + 1.0 for _, e, _ in terms), 0.0)
        rate = 1.0 - (2.0 if square else 1.0) * gamma * growth
        if not square:
            rate = 0.5 + 0.5 * rate - 0.5 * gamma * growth
        return max(120.0, min(4000.0, 80.0 / rate))

    def outer(f, cutoff: float) -> float:
        return sum(quad(f, lo, hi, **_QUAD_KW)[0]
                   for lo, hi in ((0.0, 60.0), (60.0, cutoff)) if hi > lo)

    int_g1_sq = outer(lambda t: g_damped(psi1_terms, t) ** 2,
                      tail_cutoff(psi1_terms, square=True))
    int_g2_sq = outer(lambda t: g_damped(psi2_terms, t) ** 2,
                      tail_cutoff(psi2_terms, square=True))
    int_g1 = outer(lambda t: g_damped(psi1_terms, t) * np.exp(-0.5 * t),
                   tail_cutoff(psi1_terms, square=False))
    return (p * int_g1_sq + (q / gamma1 ** 2) * int_g2_sq
            - 2.0 * a_const * p * int_g1 + p * a_const ** 2)


def g_on_grid_per_term(alpha: float, gamma1: float, model: ModelParams, config):
    """_g_on_grid as the library once computed it: every term over the whole grid.

    Each term c * x^e * (log x)^m takes its own exp and power over all
    (M, 8) nodes, and each G is its own reversed cumulative sum.  Returns
    (ds, G1, G2, a) like _g_on_grid.
    """
    psi1_terms, psi2_terms = _psi_term_lists(alpha, gamma1, model)
    m = config.grid_points
    s = (np.arange(m + 1) / m) ** config.grade
    s_mid = 0.5 * (s[:-1] + s[1:])
    nodes, wts = np.polynomial.legendre.leggauss(8)
    edges = np.append(s_mid ** (-model.gamma), 1.0)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[:-1] - edges[1:])
    log_x = np.log(mid[:, None] + half[:, None] * nodes[None, :])

    def g_at_midpoints(terms) -> np.ndarray:
        psi = sum(c * np.exp(e * log_x) * log_x ** k for c, e, k in terms)
        return np.cumsum((half * (psi @ wts))[::-1])[::-1]

    return (np.diff(s), g_at_midpoints(psi1_terms), g_at_midpoints(psi2_terms),
            float(_phi_star(1.0, alpha, gamma1)))


def sigma2_mc_gaussian_path(alpha: float, gamma1: float, gamma2: float, config):
    """sigma_squared_mc's estimate drawn path-wise, as the library once drew it.

    Each of the r replicates draws M standard normal increments of B1 and
    then M of B2, whole, from one Philox(SeedSequence(seed)) stream, and
    forms int G1 dB1 - a B1(1) + int G2 dB2 / gamma1 on the oracle's grid.
    Returns (sample variance, its standard error).  Work and memory are
    O(M r).
    """
    model = _check_variance_domain(alpha, gamma1, gamma2)
    ds, g1, g2, a_const = _g_on_grid(alpha, gamma1, model, config)
    c1 = np.sqrt(model.p * ds) * (g1 - a_const)
    c2 = np.sqrt(model.q * ds) * g2 / gamma1
    r, m = config.replicates, config.grid_points
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    totals = rng.standard_normal((r, m)) @ c1 + rng.standard_normal((r, m)) @ c2
    estimate = float(totals.var(ddof=1))
    return estimate, float(estimate * np.sqrt(2.0 / (r - 1)))


def burr_quantile_whole(u, gamma1: float, eta: float) -> np.ndarray:
    """The Burr quantile of an array of uniforms, each step into a new array."""
    with np.errstate(over="ignore"):
        out = ((1.0 - u) ** (-gamma1 / eta) - 1.0) ** eta
    overflow = ~np.isfinite(out)
    if np.any(overflow):
        a = -(gamma1 / eta) * np.log1p(-u[overflow])
        with np.errstate(over="ignore"):
            out[overflow] = np.exp(eta * (a + np.log(-np.expm1(-a))))
    return out


def draw_arrays_where(n: int, model: ModelParams, contamination: ContaminationSpec,
                      rng: np.random.Generator):
    """``simulation._draw_arrays`` as once written: (x, c, z, delta).

    Both Burr quantiles are evaluated on every row, one is picked by
    ``np.where``, and every uniform array lives to the end.  The uniforms
    come from rng in the order u_mix, u_x, u_c.
    """
    u_mix = rng.random(n)
    u_x = rng.random(n)
    u_c = rng.random(n)
    contaminated = u_mix < contamination.epsilon
    x = np.where(contaminated,
                 burr_quantile_whole(u_x, contamination.theta1, model.eta),
                 burr_quantile_whole(u_x, model.gamma1, model.eta))
    with np.errstate(over="ignore"):
        c = (-np.log(np.maximum(u_c, np.finfo(float).tiny))) ** (-model.gamma2)
    c = np.where(contaminated, np.inf, c)
    z = np.minimum(x, c)
    delta = (x <= c).astype(np.int8)
    return x, c, z, delta


def kaplan_meier_every_factor(sample: OrderedSample, x: float) -> float:
    """Kaplan-Meier survival at x as the product of one factor per order statistic <= x.

    ((n-i)/(n-i+1))^delta_i for i = 1..m: a censored order statistic
    contributes the factor 1.0.
    """
    n = sample.n
    m = int(np.searchsorted(sample.z_sorted, x, side="right"))
    if m == 0:
        return 1.0
    i = np.arange(1, m + 1)
    factors = ((n - i) / (n - i + 1.0)) ** sample.delta_concomitant[:m]
    return float(np.prod(factors))
