import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from tailcens import (
    EstimationError,
    MdpdWindow,
    NoRootError,
    SolverOptions,
    TailConfig,
    censored_proportion,
    efg_estimator,
    hill_gamma,
    mdpd_estimate,
    mdpd_objective,
    mdpd_residual,
    mdpd_weights,
    mns_estimator,
    ordered_from_arrays,
    top_log_excesses,
    worms_estimator,
)


@pytest.fixture
def toy():
    return ordered_from_arrays([1, 2, 4], [1, 1, 1])


def test_hill_hand_values(toy):
    assert hill_gamma(toy, 2) == pytest.approx(1.5 * np.log(2))
    single = ordered_from_arrays([1.0, np.e], [1, 1])
    assert hill_gamma(single, 1) == pytest.approx(1.0)


def test_hill_degenerate():
    s = ordered_from_arrays([2.0, 2.0, 2.0], [1, 1, 1])
    with pytest.raises(EstimationError, match="zero Hill estimate"):
        hill_gamma(s, 2)


def test_censored_proportion():
    s = ordered_from_arrays([1, 2, 3, 4, 5], [0, 1, 0, 1, 1])
    assert censored_proportion(s, 4) == pytest.approx(0.75)
    assert censored_proportion(s, 2) == 1.0


def test_efg(toy):
    assert efg_estimator(toy, 2) == pytest.approx(hill_gamma(toy, 2))  # p_hat = 1
    s = ordered_from_arrays([1, 2, 4], [1, 1, 0])
    assert efg_estimator(s, 2) == pytest.approx(hill_gamma(s, 2) / 0.5)
    s0 = ordered_from_arrays([1, 2, 4], [1, 0, 0])
    with pytest.raises(EstimationError, match="all top observations censored"):
        efg_estimator(s0, 2)


def test_worms_hand_values(toy):
    # KM survivals: 2/3 at 1, 1/3 at 2 -> ratio 1/2 on the i=1 term
    assert worms_estimator(toy, 2) == pytest.approx(np.log(2) + 0.5 * np.log(2))
    # k=1 reduces to the top log-spacing
    assert worms_estimator(toy, 1) == pytest.approx(np.log(2))


def test_worms_threshold_exhausted():
    # an uncensored tie at the maximum drives the KM survival to 0 at the
    # threshold, leaving the ratio undefined
    s = ordered_from_arrays([1.0, 2.0, 2.0], [1, 1, 1])
    with pytest.raises(EstimationError, match="KM threshold mass exhausted"):
        worms_estimator(s, 1)


def test_mns_hand_values(toy):
    assert mns_estimator(toy, 2) == pytest.approx(
        np.exp(-0.5) * np.log(4) + 0.5 * np.log(2))
    single = ordered_from_arrays([1, 2, 4], [1, 1, 1])
    assert mns_estimator(single, 1) == pytest.approx(np.log(2))
    s0 = ordered_from_arrays([1, 2, 4], [1, 0, 0])
    assert mns_estimator(s0, 2) == 0.0


def test_residual_hand_value():
    # k=1, a1=1, r1=e, alpha=1, gamma1=1: (1-1)e^{-2} - 1*2/9 = -2/9
    s = ordered_from_arrays([1.0, np.e], [1, 1])
    assert mdpd_residual(1.0, s, TailConfig(k=1, alpha=1.0)) == pytest.approx(-2 / 9)


def test_residual_all_censored_negative():
    s = ordered_from_arrays([1, 2, 4], [1, 0, 0])
    config = TailConfig(k=2, alpha=0.3)
    for g in [0.1, 0.5, 1.0, 5.0]:
        expected = -0.3 * g * (g + 1) / (1 + 0.3 + 0.3 * g) ** 2
        assert mdpd_residual(g, s, config) == pytest.approx(expected)
        assert mdpd_residual(g, s, config) < 0


def test_residual_matches_termwise_recomputation():
    rng = np.random.default_rng(5)
    z = rng.pareto(2.0, 40) + 1
    d = rng.integers(0, 2, 40)
    d[-1] = 1
    s = ordered_from_arrays(z, d)
    k, alpha = 15, 0.25
    w = mdpd_weights(s, k)
    log_exc, _ = top_log_excesses(s, k)
    for g in [0.2, 0.7, 1.3]:
        brute = sum(
            w[i] * (g - log_exc[i]) * np.exp(log_exc[i]) ** (-alpha * (1 + 1 / g))
            for i in range(k)) - alpha * g * (g + 1) / (1 + alpha + alpha * g) ** 2
        assert mdpd_residual(g, s, TailConfig(k=k, alpha=alpha)) == pytest.approx(
            brute, rel=1e-12)


def test_residual_validation(toy):
    with pytest.raises(ValueError):
        mdpd_residual(0.0, toy, TailConfig(k=2, alpha=0.1))
    with pytest.raises(ValueError):
        mdpd_residual(-1.0, toy, TailConfig(k=2, alpha=0.1))


def test_mdpd_alpha0_is_mns_bitwise(toy):
    result = mdpd_estimate(toy, TailConfig(k=2, alpha=0.0))
    assert result.method == "MNS"
    assert result.gamma1_hat == mns_estimator(toy, 2)


def test_mdpd_frozen_scalar_root():
    # k=1, a1=1, r1=e, alpha=0.1: root located by an independent
    # grid+bisection oracle before this module was written
    s = ordered_from_arrays([1.0, np.e], [1, 1])
    result = mdpd_estimate(s, TailConfig(k=1, alpha=0.1))
    assert result.gamma1_hat == pytest.approx(1.216859644513633, abs=1e-9)
    assert abs(result.residual) <= 1e-10


def test_mdpd_root_in_bracket(toy):
    result = mdpd_estimate(toy, TailConfig(k=2, alpha=0.2))
    lo, hi = result.bracket
    assert lo <= result.gamma1_hat <= hi
    assert abs(result.residual) <= 1e-10
    assert result.gamma1_hat in result.all_roots


def test_mdpd_all_censored_error():
    s = ordered_from_arrays([1, 2, 4], [1, 0, 0])
    with pytest.raises(NoRootError, match="no root exists"):
        mdpd_estimate(s, TailConfig(k=2, alpha=0.1))


def test_no_root_error_carries_grid():
    s = ordered_from_arrays([1, 2, 4], [1, 1, 1])
    options = SolverOptions(domain_lo=40.0, domain_hi=50.0, grid_points=20)
    with pytest.raises(NoRootError) as excinfo:
        mdpd_estimate(s, TailConfig(k=2, alpha=0.5), options)
    assert excinfo.value.grid is not None
    assert excinfo.value.residuals.shape == excinfo.value.grid.shape


def test_alpha_to_zero_continuity():
    rng = np.random.default_rng(11)
    z = rng.pareto(2.0, 500) + 1
    s = ordered_from_arrays(z, np.ones(500, dtype=int))
    config = TailConfig(k=200, alpha=1e-4)
    result = mdpd_estimate(s, config)
    assert abs(result.gamma1_hat - mns_estimator(s, 200)) < 1e-2


def test_scale_invariance():
    rng = np.random.default_rng(3)
    z = rng.pareto(2.0, 200) + 1
    d = (rng.random(200) < 0.7).astype(int)
    for c in [1e-3, 7.5, 1e4]:
        a = ordered_from_arrays(z, d)
        b = ordered_from_arrays(z * c, d)
        for alpha in [0.0, 0.1, 0.5]:
            ra = mdpd_estimate(a, TailConfig(k=60, alpha=alpha))
            rb = mdpd_estimate(b, TailConfig(k=60, alpha=alpha))
            assert ra.gamma1_hat == pytest.approx(rb.gamma1_hat, rel=1e-9)
        assert hill_gamma(a, 60) == pytest.approx(hill_gamma(b, 60))
        assert worms_estimator(a, 60) == pytest.approx(worms_estimator(b, 60))


def test_objective_stationary_at_root():
    rng = np.random.default_rng(8)
    z = rng.pareto(2.0, 300) + 1
    d = (rng.random(300) < 0.75).astype(int)
    s = ordered_from_arrays(z, d)
    config = TailConfig(k=80, alpha=0.3)
    root = mdpd_estimate(s, config).gamma1_hat
    h = 1e-6
    deriv = (mdpd_objective(root + h, s, config)
             - mdpd_objective(root - h, s, config)) / (2 * h)
    assert abs(deriv) < 1e-5
    # and a local minimum: positive curvature
    curv = (mdpd_objective(root + h, s, config) - 2 * mdpd_objective(root, s, config)
            + mdpd_objective(root - h, s, config)) / h ** 2
    assert curv > 0


def test_objective_model_term_only():
    s = ordered_from_arrays([1, 2, 4], [1, 0, 0])  # empty weight vector
    config = TailConfig(k=2, alpha=0.5)
    g = 0.8
    expected = g ** (-0.5) / (1 + 0.5 + 0.5 * g)
    assert mdpd_objective(g, s, config) == pytest.approx(expected)


def test_objective_independent_rederivation():
    # fixed small sample, objective recomputed term by term from its
    # definition: model integral minus (1+1/alpha) * sum a_i * l^alpha(r_i)
    s = ordered_from_arrays([1.0, 2.0, 3.0, 6.0], [1, 1, 0, 1])
    config = TailConfig(k=3, alpha=0.4)
    w = mdpd_weights(s, 3)
    log_exc, _ = top_log_excesses(s, 3)
    for g in [0.5, 1.1]:
        model = g ** (-0.4) / (1 + 0.4 + 0.4 * g)
        emp = sum(w[i] * (g ** -1 * np.exp(log_exc[i]) ** (-(1 + 1 / g))) ** 0.4
                  for i in range(3))
        expected = model - (1 + 1 / 0.4) * emp
        assert mdpd_objective(g, s, config) == pytest.approx(expected, rel=1e-12)


def test_hill_exact_pareto_grid():
    # z_i = u * i^gamma gives a closed-form Hill value
    gamma, u, n, k = 0.7, 2.0, 50, 20
    z = u * np.arange(1, n + 1) ** gamma
    s = ordered_from_arrays(z, np.ones(n, dtype=int))
    i = np.arange(1, k + 1)
    expected = gamma * np.mean(np.log((n - i + 1) / (n - k)))
    assert hill_gamma(s, k) == pytest.approx(expected, rel=1e-12)


def test_mdpd_consistency_uncensored_pareto():
    # Pareto(gamma1=0.5), no censoring: estimate close to truth w.h.p.
    hits = 0
    trials = 200
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        z = (1 - rng.random(1000)) ** -0.5  # survival x^{-2}
        s = ordered_from_arrays(z, np.ones(1000, dtype=int))
        est = mdpd_estimate(s, TailConfig(k=150, alpha=0.1)).gamma1_hat
        hits += abs(est - 0.5) < 0.1
    assert hits / trials >= 0.95


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_random_samples_root_residual(seed):
    rng = np.random.default_rng(seed)
    n = 80
    z = rng.pareto(1.5, n) + 1
    d = (rng.random(n) < 0.7).astype(int)
    s = ordered_from_arrays(z, d)
    config = TailConfig(k=30, alpha=0.3)
    try:
        result = mdpd_estimate(s, config)
    except NoRootError:
        return
    assert abs(result.residual) <= 1e-10
    assert abs(mdpd_residual(result.gamma1_hat, s, config)) <= 1e-10


def reference_residuals(g, weights, log_exc, alpha):
    """Estimating-equation residual with fresh outer-product temporaries, vectorized over g."""
    g = np.atleast_1d(np.asarray(g, dtype=float))
    powers = np.exp(np.outer(-alpha * (1.0 + 1.0 / g), log_exc))
    return (powers @ (weights * -log_exc) + (powers @ weights) * g
            - alpha * g * (g + 1.0) / (1.0 + alpha + alpha * g) ** 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_window_residuals_bitwise_equal_reference(seed):
    # the grid scan and the Brent evaluations reuse buffers; neither may
    # change a single bit of the residual, underflowing powers included
    rng = np.random.default_rng(seed)
    z = rng.pareto(1.0 + seed, 600) + 1
    d = (rng.random(600) < 0.6).astype(int)
    s = ordered_from_arrays(z, d)
    grid = SolverOptions().grid
    for k in (1, 40, 299):
        window = MdpdWindow(s, k)
        w = mdpd_weights(s, k)
        log_exc, _ = top_log_excesses(s, k)
        for alpha in (1e-4, 0.1, 0.5, 2.0):
            expected = reference_residuals(grid, w, log_exc, alpha)
            scan = window._residuals(grid, alpha, np.empty((grid.size, k)))
            assert scan.tobytes() == expected.tobytes()
            for g in np.concatenate([grid[::17], rng.uniform(1e-3, 5.0, 5)]):
                assert window.residual(g, alpha) == reference_residuals(g, w, log_exc, alpha)[0]


def test_window_estimates_equal_single_cell_estimates():
    rng = np.random.default_rng(4)
    z = rng.pareto(2.0, 400) + 1
    d = (rng.random(400) < 0.7).astype(int)
    s = ordered_from_arrays(z, d)
    coarse = SolverOptions(grid_points=50)
    for k in (5, 60, 200):
        window = MdpdWindow(s, k)
        for alpha, options in [(0.5, SolverOptions()), (0.0, SolverOptions()),
                               (0.1, coarse), (1.0, SolverOptions()), (0.3, coarse)]:
            assert window.estimate(alpha, options) == mdpd_estimate(
                s, TailConfig(k=k, alpha=alpha), options)


def test_mdpd_iterations_are_brent_count():
    rng = np.random.default_rng(6)
    z = rng.pareto(2.0, 300) + 1
    s = ordered_from_arrays(z, np.ones(300, dtype=int))
    config = TailConfig(k=90, alpha=0.4)
    result = mdpd_estimate(s, config)
    root, info = brentq(mdpd_residual, *result.bracket, args=(s, config), xtol=1e-14,
                        rtol=8.9e-16, full_output=True)
    assert result.gamma1_hat == root
    assert result.iterations == info.iterations > 0
