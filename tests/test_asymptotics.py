import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings
from math import factorial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.integrate import quad

from tailcens import (
    GaussianOracleConfig,
    ModelParams,
    asymptotic_ci,
    eta_star,
    mu,
    sigma_squared,
    sigma_squared_mc,
)
from tailcens.asymptotics import (_check_variance_domain, _g_on_grid, _phi_star,
                                  _psi_term_lists)

from oracles import mu_quad, phi, sigma2_mc_gaussian_path, sigma_squared_quad

# ---------------------------------------------------------------------------
# independent oracle: psi1/psi2 are finite sums of c * x^e * (log x)^m, so
# every integral in the variance formula is exactly computable by closed-form
# integration of power-log terms.  This re-derives sigma2 without quadrature.


def _tmul(t1, t2):
    out = {}
    for c1, e1, m1 in t1:
        for c2, e2, m2 in t2:
            key = (e1 + e2, m1 + m2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return [(c, e, m) for (e, m), c in out.items() if c != 0.0]


def _integrate_1_to_x(terms):
    """int_1^X of sum c t^e log^m t -> (terms in X, constant)."""
    out, const = {}, 0.0
    for c, e, m in terms:
        assert e != -1
        for i in range(m + 1):
            coef = c * ((-1) ** i) * (factorial(m) / factorial(m - i)) / (e + 1) ** (i + 1)
            key = (e + 1, m - i)
            out[key] = out.get(key, 0.0) + coef
        const -= c * ((-1) ** m) * factorial(m) / (e + 1) ** (m + 1)
    return [(c, e, m) for (e, m), c in out.items()], const


def _subs_x_to_s(terms, const, gam):
    """X = s^-gam: X^w log^j X -> (-gam)^j s^(-gam w) log^j s."""
    out = {}
    for c, w, j in terms:
        key = (-gam * w, j)
        out[key] = out.get(key, 0.0) + c * ((-gam) ** j)
    out[(0.0, 0)] = out.get((0.0, 0), 0.0) + const
    return [(c, e, m) for (e, m), c in out.items()]


def _int_0_1(terms):
    # int_0^1 s^u log^j s ds = (-1)^j j! / (u+1)^(j+1), u > -1
    total = 0.0
    for c, u, j in terms:
        assert u > -1, "divergent term"
        total += c * ((-1) ** j) * factorial(j) / (u + 1) ** (j + 1)
    return total


def _psi_term_oracle(a, g1, g2):
    p = g2 / (g1 + g2)
    q = 1 - p
    gam = g1 * g2 / (g1 + g2)
    big_a = g1 * (1 + a + a * g1)
    big_b = a * (1 + g1)
    c0 = a / g1 ** (a + 3)
    e_phi = -(a + g1 + a * g1) / g1
    phi_t = [(c0 * big_a, e_phi, 0), (-c0 * big_b, e_phi, 1)]
    c = (1 + a) * (1 + g1) / g1
    star_t = [(c0 * (big_a / (c - 1) - big_b / (c - 1) ** 2), 1 - c, 0),
              (-c0 * big_b / (c - 1), 1 - c, 1)]
    xg2 = [(1.0, 1 / g2, 0)]
    xgam = [(1.0, 1 / gam, 0)]
    psi1 = _tmul(xg2, phi_t) + [(-q * cc, ee, mm) for cc, ee, mm in _tmul(xgam, star_t)]
    psi2 = _tmul(xgam, star_t)
    a_const = c0 * (big_a / (c - 1) - big_b / (c - 1) ** 2)
    return psi1, psi2, a_const, p, q, gam


def sigma2_oracle(a, g1, g2):
    psi1, psi2, a_const, p, q, gam = _psi_term_oracle(a, g1, g2)
    t1, k1 = _integrate_1_to_x(psi1)
    g1_terms = _subs_x_to_s(t1, k1, gam)
    t2, k2 = _integrate_1_to_x(psi2)
    g2_terms = _subs_x_to_s(t2, k2, gam)
    return (p * _int_0_1(_tmul(g1_terms, g1_terms))
            + (q / g1 ** 2) * _int_0_1(_tmul(g2_terms, g2_terms))
            - 2 * a_const * p * _int_0_1(g1_terms)
            + p * a_const ** 2)


def sigma2_exact(a, g1, g2):
    """sigma2_oracle in 50-digit arithmetic at the exact float inputs.

    In double precision the oracle divides by (e+1)^2 for exponents e near
    -1 and loses up to ~2e-10 relative on the SIGMA_GRID; at 50 digits it
    is exact to double precision wherever e + 1 is not 0 itself.
    """
    with mpmath.workdps(50):
        return float(sigma2_oracle(mpmath.mpf(a), mpmath.mpf(g1), mpmath.mpf(g2)))


SIGMA_GRID = [(0.1, 0.3, 0.7), (0.3, 0.3, 0.6), (0.5, 0.5, 0.75),
              (1.0, 1.0, 0.6), (0.3, 0.5, 0.7), (0.5, 0.3, 0.55)]
# (alpha, gamma1, p) points of the benchmark's constants-grid workload
CONSTANTS_GRID = [(0.5, 0.3, 0.7), (1.0, 0.5, 0.8), (0.3, 0.2, 0.75)]


def sigma2_grid_expectation(alpha, gamma1, gamma2, config):
    """v, the exact variance of one replicate total on the Monte Carlo grid.

    It is also the exact expectation of the Monte Carlo estimate there.
    """
    model = _check_variance_domain(alpha, gamma1, gamma2)
    ds, g1, g2, a_const = _g_on_grid(alpha, gamma1, model, config)
    return (model.p * np.sum((g1 - a_const) ** 2 * ds)
            + model.q / gamma1 ** 2 * np.sum(g2 ** 2 * ds))


def sigma2_mc_one_stream(alpha, gamma1, gamma2, config):
    """sigma_squared_mc written out: sqrt(v) times r normals drawn one by one.

    v is the grid expectation above, and the normals come in order from one
    Philox(SeedSequence(seed)) stream.
    """
    v = sigma2_grid_expectation(alpha, gamma1, gamma2, config)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    normals = np.array([rng.standard_normal() for _ in range(config.replicates)])
    estimate = float((np.sqrt(v) * normals).var(ddof=1))
    return estimate, float(estimate * np.sqrt(2.0 / (config.replicates - 1)))


# ---------------------------------------------------------------------------


def test_phi_hand_values():
    assert phi(1.0, 1.0, 1.0) == pytest.approx(3.0)
    # alpha=1, gamma1=1: phi(x) = (3 - 2 log x) / x^3, sign change at e^{3/2}
    for x in [1.5, 4.0, 10.0]:
        assert phi(x, 1.0, 1.0) == pytest.approx((3 - 2 * np.log(x)) / x ** 3)
    root = np.exp(1.5)
    assert phi(root * 0.999, 1.0, 1.0) > 0 > phi(root * 1.001, 1.0, 1.0)
    assert abs(phi(1e8, 1.0, 1.0)) < 1e-20
    with pytest.raises(ValueError):
        phi(0.5, 1.0, 1.0)


def test_phi_star_hand_value():
    assert _phi_star(1.0, 1.0, 1.0) == pytest.approx(7 / 9)
    assert abs(_phi_star(1e8, 1.0, 1.0)) < 1e-20
    with pytest.raises(ValueError):
        _phi_star(0.9, 1.0, 1.0)


@pytest.mark.parametrize("alpha,gamma1", [
    (0.1, 0.3), (0.1, 1.0), (0.3, 0.5), (0.5, 0.5), (0.5, 2.0),
    (1.0, 0.3), (1.0, 1.0), (1.5, 0.7), (2.0, 0.4), (0.7, 1.3),
])
@pytest.mark.parametrize("x", [1.0, 2.5])
def test_phi_star_matches_quadrature(alpha, gamma1, x):
    val, _ = quad(lambda t: t ** (-1 / gamma1) * phi(t, alpha, gamma1),
                  x, np.inf, limit=200)
    assert _phi_star(x, alpha, gamma1) == pytest.approx(val, rel=1e-8)


def test_phi_absolutely_integrable():
    for alpha, gamma1 in [(0.1, 0.3), (0.5, 1.0), (1.0, 2.0)]:
        val, err = quad(lambda x: abs(phi(x, alpha, gamma1)), 1, np.inf, limit=200)
        assert np.isfinite(val) and err < 1e-6 * max(val, 1)


def test_eta_star_hand_values():
    assert eta_star(0.0, 0.5) == pytest.approx(4.0)
    assert eta_star(1.0, 1.0) == pytest.approx(10 / 27)
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.uniform(0, 2)
        g = rng.uniform(0.05, 3)
        assert eta_star(a, g) > 0


@pytest.mark.parametrize("alpha,gamma1", [
    (0.1, 0.3), (0.1, 1.0), (0.3, 0.5), (0.5, 0.5), (0.5, 2.0),
    (1.0, 0.3), (1.0, 1.0), (1.5, 0.7), (2.0, 0.4), (0.7, 1.3),
])
def test_eta_star_quadrature_identity(alpha, gamma1):
    """eta_star equals (1+alpha) * int (d/dgamma of the log-density score)^2
    * density^(alpha-1), the defining integral of the curvature constant."""
    def score_sq_weighted(x):
        density = (1 / gamma1) * x ** (-(1 + 1 / gamma1))
        d_density = (1 / gamma1 ** 3) * (np.log(x) - gamma1) * x ** (-(1 + 1 / gamma1))
        return d_density ** 2 * density ** (alpha - 1)

    val, _ = quad(score_sq_weighted, 1, np.inf, limit=200)
    assert eta_star(alpha, gamma1) == pytest.approx((1 + alpha) * val, rel=1e-6)


def test_mu_hand_values():
    assert mu(1.0, 1.0, 0.0) == pytest.approx(5 / 27, abs=1e-10)
    assert mu(1.0, 1.0, -1.0) == pytest.approx(11 / 72, abs=1e-10)
    with pytest.raises(ValueError):
        mu(1.0, 1.0, 0.5)


def test_mu_against_mpmath_oracle():
    cases = [(0.3, 0.5, -0.5), (0.5, 0.3, -1.0), (1.0, 0.7, 0.0), (0.1, 1.2, -2.0)]
    for alpha, gamma1, tau1 in cases:
        def integrand(x):
            if tau1 == 0.0:
                kern = mpmath.log(x) / gamma1 ** 2
            else:
                kern = (x ** (tau1 / gamma1) - 1) / (gamma1 * tau1)
            big_a = gamma1 * (1 + alpha + alpha * gamma1)
            big_b = alpha * (1 + gamma1)
            ph = (alpha / gamma1 ** (alpha + 3)) * (big_a - big_b * mpmath.log(x)) \
                * x ** (-(alpha + gamma1 + alpha * gamma1) / gamma1)
            return x ** (-1 / gamma1) * kern * ph

        expected = float(mpmath.quad(integrand, [1, 10, mpmath.inf]))
        assert mu(alpha, gamma1, tau1) == pytest.approx(expected, rel=1e-8)


def test_mu_vanishes_for_strong_second_order():
    values = [abs(mu(0.5, 0.5, tau1)) for tau1 in (-1.0, -10.0, -100.0)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 0.025
    # decay rate ~ 1/|tau1| once |tau1| is large
    assert values[2] == pytest.approx(values[1] / 10, rel=0.5)


def test_mu_raises_no_warning_for_negative_tau1():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mu(0.5, 0.3, -0.5) > 0


@pytest.mark.parametrize("alpha,gamma1,p", SIGMA_GRID + CONSTANTS_GRID)
def test_sigma_squared_matches_exact_algebra(alpha, gamma1, p):
    gamma2 = p * gamma1 / (1 - p)
    expected = sigma2_exact(alpha, gamma1, gamma2)
    assert expected > 0
    assert sigma_squared(alpha, gamma1, gamma2) == pytest.approx(expected, rel=1e-12)
    # the nested quadrature it replaced converges here, and agrees
    assert sigma_squared_quad(alpha, gamma1, gamma2) == pytest.approx(expected, rel=1e-10)


def _alpha_at_margin(margin, gamma1=0.3, p=0.7):
    """alpha where p*(1 - gamma1 + alpha*(1+gamma1)) = 1/2 + margin."""
    return ((0.5 + margin) / p - 1 + gamma1) / (1 + gamma1)


@pytest.mark.parametrize("alpha,rel", [
    (0.0125, 1e-12),  # margin 1.375e-3: the quadrature was 1.5e-3 low
    (_alpha_at_margin(1e-3), 1e-12),  # the quadrature was 1.6% low
    # at margin 1e-5, rounding the derived exponents (~1e-16 absolute) moves
    # the smallest rate, and so sigma2, by ~1e-11 relative in any double
    # evaluation; the quadrature was off by a factor ~1e4
    (_alpha_at_margin(1e-5), 1e-10),
], ids=["margin-1.4e-3", "margin-1e-3", "margin-1e-5"])
def test_sigma_squared_near_the_variance_domain_edge(alpha, rel):
    gamma1, p = 0.3, 0.7
    gamma2 = p * gamma1 / (1 - p)
    expected = sigma2_exact(alpha, gamma1, gamma2)
    assert sigma_squared(alpha, gamma1, gamma2) == pytest.approx(expected, rel=rel)


@pytest.mark.parametrize("gamma2", [2.0, 2 * (1 + 1e-12), 2 * (1 - 1e-12), 2 * (1 + 1e-8),
                                    2 * (1 - 1e-8), 2 * (1 + 1e-4)])
def test_sigma_squared_where_a_psi_exponent_is_minus_one(gamma2):
    # at (alpha, gamma1) = (0.5, 0.5) the phi_star terms of psi1 and psi2
    # have x-exponent -1 (kappa = 0) exactly at gamma2 = 2, where a
    # term-by-term antiderivative would divide by zero
    kappas = {e + 1.0 for terms in _psi_term_lists(0.5, 0.5, ModelParams(0.5, 2.0))
              for _, e, _ in terms}
    assert 0.0 in kappas
    assert sigma_squared(0.5, 0.5, gamma2) == pytest.approx(
        sigma_squared_quad(0.5, 0.5, gamma2), rel=1e-10)


@pytest.mark.parametrize("alpha,gamma1", [(0.5, 0.3), (1.0, 1.0), (0.1, 1.2)])
@pytest.mark.parametrize("tau1", [0.0, -1e-9, -0.5, -3.0])
def test_mu_matches_quadrature(alpha, gamma1, tau1):
    assert mu(alpha, gamma1, tau1) == pytest.approx(mu_quad(alpha, gamma1, tau1), rel=1e-12)


@given(alpha=st.floats(1e-3, 5.0), gamma1=st.floats(0.02, 5.0), p=st.floats(0.5, 0.999))
@settings(max_examples=500, deadline=None)
def test_every_moment_rate_is_positive_on_the_variance_domain(alpha, gamma1, p):
    gamma2 = p * gamma1 / (1 - p)
    try:
        model = _check_variance_domain(alpha, gamma1, gamma2)
    except ValueError:
        return
    rate = 1.0 / model.gamma
    for terms in _psi_term_lists(alpha, gamma1, model):
        kappas = [e + 1.0 for _, e, _ in terms]
        assert all(rate - ki > 0 and rate - ki - kj > 0 for ki in kappas for kj in kappas)
        smallest = min(rate - ki - kj for ki in kappas for kj in kappas)
        margin = model.p * (1 - gamma1 + alpha * (1 + gamma1)) - 0.5
        assert smallest == pytest.approx(2 / (model.p * gamma1) * margin, rel=1e-6, abs=1e-9)


def test_sigma_squared_domain_errors():
    with pytest.raises(ValueError, match="requires p > 1/2"):
        sigma_squared(0.5, 1.0, 1.0)  # p = 1/2
    with pytest.raises(ValueError, match="requires p > 1/2"):
        sigma_squared(0.5, 1.0, 0.5)
    # p > 1/2 but the G2 component integral diverges
    with pytest.raises(ValueError, match="diverges"):
        sigma_squared(0.1, 1.0, 1.3)
    with pytest.raises(ValueError, match="diverges"):
        sigma_squared_mc(0.1, 1.0, 1.3)


def test_sigma_squared_mc_agrees():
    alpha, gamma1, p = 0.5, 0.5, 0.75
    gamma2 = p * gamma1 / (1 - p)
    exact = sigma_squared(alpha, gamma1, gamma2)
    config = GaussianOracleConfig(replicates=4000, seed=7)
    estimate, stderr = sigma_squared_mc(alpha, gamma1, gamma2, config)
    assert abs(estimate - exact) < 3 * stderr
    assert abs(estimate - exact) / exact < 0.05


def test_sigma_squared_mc_deterministic_and_scaling():
    config = GaussianOracleConfig(replicates=1000, seed=3)
    a = sigma_squared_mc(0.3, 0.3, 0.45, config)
    b = sigma_squared_mc(0.3, 0.3, 0.45, config)
    assert a == b
    big = GaussianOracleConfig(replicates=4000, seed=3)
    _, se_big = sigma_squared_mc(0.3, 0.3, 0.45, big)
    assert se_big == pytest.approx(a[1] / 2, rel=0.2)


DETERMINISM_CASE = (0.5, 0.5, 1.5, GaussianOracleConfig(replicates=1003, grid_points=1000,
                                                        seed=11))
# the first constants-grid row at the default grid and replicate count
DEFAULT_CASE = (0.5, 0.3, 0.7, GaussianOracleConfig())


def test_sigma_squared_mc_matches_one_stream_reference():
    for case in (DETERMINISM_CASE, DEFAULT_CASE):
        assert sigma_squared_mc(*case) == sigma2_mc_one_stream(*case)


# c2 carries 12-27% of v at these points, so a v without either part moves
# the mean of the 2000 scaled estimates by >= 100 of its standard errors
LAW_POINTS = CONSTANTS_GRID + [(0.5, 0.5, 0.75)]
LAW_CONFIG = GaussianOracleConfig(grid_points=1000, replicates=1000)


def test_sigma_squared_mc_law_is_scaled_chi_square():
    """(r-1) estimate / v ~ chi2(r-1), v the exact grid variance of a replicate."""
    r, seeds = LAW_CONFIG.replicates, 2000
    points = [(alpha, gamma1, p * gamma1 / (1 - p)) for alpha, gamma1, p in LAW_POINTS]
    variances = [sigma2_grid_expectation(*point, LAW_CONFIG) for point in points]
    scaled = np.empty(seeds)
    for seed in range(seeds):
        config = dataclasses.replace(LAW_CONFIG, seed=seed)
        point = seed % len(points)
        estimate, stderr = sigma_squared_mc(*points[point], config)
        assert stderr == estimate * np.sqrt(2.0 / (r - 1))
        scaled[seed] = (r - 1) * estimate / variances[point]
    assert abs(scaled.mean() - (r - 1)) < 4 * np.sqrt(2 * (r - 1) / seeds)
    assert stats.kstest(scaled, stats.chi2(r - 1).cdf).pvalue > 1e-3


def test_gaussian_path_reference_has_the_same_mean():
    """The path-wise draw of B1 and B2 increments averages to v as well."""
    seeds = 60
    alpha, gamma1, p = LAW_POINTS[0]
    gamma2 = p * gamma1 / (1 - p)
    v = sigma2_grid_expectation(alpha, gamma1, gamma2, LAW_CONFIG)
    ratios = [sigma2_mc_gaussian_path(alpha, gamma1, gamma2,
                                      dataclasses.replace(LAW_CONFIG, seed=seed))[0] / v
              for seed in range(seeds)]
    se = np.sqrt(2.0 / (LAW_CONFIG.replicates - 1) / seeds)
    assert abs(np.mean(ratios) - 1.0) < 3 * se


def test_sigma_squared_mc_bit_equal_for_1_and_2_blas_threads():
    code = ("from tailcens import GaussianOracleConfig, sigma_squared_mc; "
            "print(repr(sigma_squared_mc(0.5, 0.5, 1.5, GaussianOracleConfig("
            "replicates=1003, grid_points=1000, seed=11)))); "
            "print(repr(sigma_squared_mc(0.5, 0.3, 0.7)))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    expected = "".join(repr(sigma_squared_mc(*case)) + "\n"
                       for case in (DETERMINISM_CASE, DEFAULT_CASE))
    assert outputs[0] == outputs[1] == expected


def test_sigma_squared_mc_memory_is_bounded():
    # O(M + r): at r = 10^5 the 2 M r path-wise increments would take 13 GB,
    # and the r totals take 0.8 MB
    gamma2 = 0.7 * 0.3 / 0.3
    for replicates in (4000, 10 ** 5):
        tracemalloc.start()
        try:
            sigma_squared_mc(0.5, 0.3, gamma2, GaussianOracleConfig(replicates=replicates))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB at r = {replicates}"


@pytest.mark.parametrize("config,points", [
    (GaussianOracleConfig(), CONSTANTS_GRID),
    # the default grid starts at s_1 = 8192^-6 and misses the mass below it,
    # which is ~1% of sigma2 at (0.1, 0.3, 0.7) where the integrand decays
    # slowly; a longer, more graded grid reaches every SIGMA_GRID point
    (GaussianOracleConfig(grid_points=32768, grade=16.0), CONSTANTS_GRID + SIGMA_GRID),
], ids=["default-grid", "fine-grid"])
def test_grid_expectation_matches_sigma_squared(config, points):
    """The MC estimate's exact mean on its grid against the closed form.

    Cell-wise Gauss-Legendre in x on the graded s-grid is a discretisation
    independent of sigma_squared's closed form, so this is a much tighter
    check than the MC stderr.
    """
    worst = 0.0
    for alpha, gamma1, p in points:
        gamma2 = p * gamma1 / (1 - p)
        exact = sigma_squared(alpha, gamma1, gamma2)
        grid = sigma2_grid_expectation(alpha, gamma1, gamma2, config)
        worst = max(worst, abs(grid - exact) / exact)
    assert worst < 1e-5, f"worst relative gap {worst:.3g}"


def test_gaussian_oracle_config_validation():
    with pytest.raises(ValueError):
        GaussianOracleConfig(grid_points=100)
    with pytest.raises(ValueError):
        GaussianOracleConfig(replicates=10)


def test_asymptotic_ci_properties():
    model = ModelParams(gamma1=0.5, gamma2=1.5)
    lo, hi = asymptotic_ci(0.5, alpha=0.5, k=100, model=model, level=0.95)
    assert lo < 0.5 < hi
    lo4, hi4 = asymptotic_ci(0.5, alpha=0.5, k=400, model=model, level=0.95)
    assert (hi4 - lo4) == pytest.approx((hi - lo) / 2, rel=1e-12)
    # 95% quantile
    sigma = np.sqrt(sigma_squared(0.5, 0.5, 1.5))
    half = 1.959963984540054 * (1 + 1 / 0.5) * sigma / (eta_star(0.5, 0.5) * 10)
    assert hi - lo == pytest.approx(2 * half, rel=1e-9)
    with pytest.raises(ValueError):
        asymptotic_ci(0.5, alpha=0.5, k=100, model=model, level=1.5)
    with pytest.raises(ValueError):
        asymptotic_ci(0.5, alpha=0.0, k=100, model=model)


def test_constants_continuity():
    # small parameter perturbations move the constants only slightly
    base = (0.5, 0.5, 1.5)
    s0 = sigma_squared(*base)
    e0 = eta_star(0.5, 0.5)
    h = 1e-5
    assert abs(sigma_squared(0.5 + h, 0.5, 1.5) - s0) < 1e-3
    assert abs(sigma_squared(0.5, 0.5 + h, 1.5) - s0) < 1e-3
    assert abs(eta_star(0.5 + h, 0.5) - e0) < 1e-3
