from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from tailcens import estimators
from tailcens import (
    ContaminationSpec,
    EstimationError,
    MdpdWindow,
    ModelParams,
    NoRootError,
    OrderedSample,
    SolverOptions,
    TailConfig,
    efg_estimator,
    gamma2_from_p,
    hill_gamma,
    mdpd_estimate,
    mdpd_weights,
    mns_estimator,
    ordered_from_arrays,
    sample_contaminated_censored,
    top_log_excesses,
    worms_estimator,
)
from tailcens.estimators import _uncensored_fraction

from oracles import mdpd_residual


# oracle: the DPD surface whose stationary point the MDPD root must be
def mdpd_objective(gamma1: float, sample: OrderedSample, config: TailConfig) -> float:
    """Empirical density power divergence objective at gamma1 (alpha > 0).

    Model term gamma1^{-alpha} / (1 + alpha + alpha*gamma1) minus the
    weighted empirical term (1 + 1/alpha) sum_i a_ik l_gamma1^alpha(r_i).
    The MDPD root is a stationary point of this surface.
    """
    if gamma1 <= 0:
        raise ValueError(f"gamma1={gamma1} must be > 0")
    alpha = config.alpha
    if alpha <= 0:
        raise ValueError("mdpd_objective requires alpha > 0")
    weights = mdpd_weights(sample, config.k)
    log_exc, _ = top_log_excesses(sample, config.k)
    model = gamma1 ** (-alpha) / (1.0 + alpha + alpha * gamma1)
    density_pow = gamma1 ** (-alpha) * np.exp(-alpha * (1.0 + 1.0 / gamma1) * log_exc)
    return model - (1.0 + 1.0 / alpha) * float(np.dot(weights, density_pow))


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


def test_uncensored_fraction():
    s = ordered_from_arrays([1, 2, 3, 4, 5], [0, 1, 0, 1, 1])
    assert _uncensored_fraction(s, 4) == pytest.approx(0.75)
    assert _uncensored_fraction(s, 2) == 1.0


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
    """Estimating-equation residual at each g, every row reduced by its own fresh product."""
    g = np.atleast_1d(np.asarray(g, dtype=float))
    powers = np.exp(np.outer(-alpha * (1.0 + 1.0 / g), log_exc))
    return (np.array([(p[None, :] @ (weights * -log_exc))[0] for p in powers])
            + np.array([(p[None, :] @ weights)[0] for p in powers]) * g
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
            assert window._residuals(grid, alpha).tobytes() == expected.tobytes()
            for g in np.concatenate([grid[::17], rng.uniform(1e-3, 5.0, 5)]):
                assert window.residual(g, alpha) == reference_residuals(g, w, log_exc, alpha)[0]


@pytest.mark.parametrize("k", [1, 40, 299, 5000, 20000])
def test_window_rows_do_not_depend_on_the_rows_scanned_with_them(k):
    # a scan of any slice of the grid gives each row the full scan's bits,
    # which are residual()'s bits at that grid point
    rng = np.random.default_rng(k)
    s = ordered_from_arrays(rng.pareto(1.5, k + 301) + 1, (rng.random(k + 301) < 0.6).astype(int))
    grid = SolverOptions().grid
    window = MdpdWindow(s, k)
    alpha = 0.5
    full = window._residuals(grid, alpha)
    for rows in (1, 16, 37):
        for lo in (0, 7, 91, grid.size - rows):
            part = window._residuals(grid[lo:lo + rows], alpha)
            assert part.tobytes() == full[lo:lo + rows].tobytes()
    assert all(window.residual(g, alpha) == v for g, v in zip(grid, full))


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
    root, info = scipy_brentq(mdpd_residual, *result.bracket, args=(s, config), xtol=1e-14,
                              rtol=8.9e-16, full_output=True)
    assert result.gamma1_hat == root
    assert result.iterations == info.iterations > 0


def test_solver_options_validation():
    for bad in (dict(tol_abs=-1.0), dict(tol_abs=0.0), dict(tol_abs=float("nan")),
                dict(tol_abs=float("inf")), dict(domain_lo=2.0, domain_hi=2.0),
                dict(grid_points=1), dict(max_iter=0)):
        with pytest.raises(ValueError):
            SolverOptions(**bad)
    assert SolverOptions(domain_lo=50.0, domain_hi=1e-6).grid[0] == 50.0
    assert SolverOptions(grid_points=2, max_iter=1).grid.size == 2


# The local scan of MdpdWindow.gamma1_hat against the full scan of estimate,
# on residual functions whose roots are placed around the reference by hand.
GRID = SolverOptions().grid
MID = int(np.searchsorted(GRID, 1.0))  # the local window is GRID[MID - 8:MID + 8]


class ScriptedWindow(MdpdWindow):
    """A window whose residual is f(gamma1), the same in every scan and in Brent."""

    def __init__(self, f, reference=1.0):
        super().__init__(ordered_from_arrays(np.arange(1.0, 41.0), np.ones(40, dtype=int)), 20)
        self.f = f
        self.reference = reference

    def _residuals(self, g, alpha):
        return np.array([self.f(float(x)) for x in g])

    def residual(self, gamma1, alpha):
        return float(self.f(float(gamma1)))


def local_and_full(window, alpha=0.5, options=SolverOptions()):
    return window._local_root(alpha, options), window.estimate(alpha, options).gamma1_hat


def test_local_scan_accepts_a_root_inside_the_window():
    window = ScriptedWindow(lambda g: g - 1.1)
    local, full = local_and_full(window)
    assert local == full == window.gamma1_hat(0.5)
    assert local == pytest.approx(1.1)


@pytest.mark.parametrize("offset", [0.0, 1e-20])
def test_local_scan_root_on_a_grid_row(offset):
    # a residual of exactly 0 (a root at the row) or of 1e-20 (a sign change
    # just below it) on a grid row: the local scan's values are the full
    # scan's, so both find the same root
    window = ScriptedWindow(lambda g: g - GRID[MID + 2] + offset)
    local, full = local_and_full(window)
    assert local == full == window.gamma1_hat(0.5)
    assert local == pytest.approx(GRID[MID + 2], rel=1e-12)


def test_local_scan_without_sign_change_falls_back():
    window = ScriptedWindow(lambda g: g - 20.0)
    local, full = local_and_full(window)
    assert local is None
    assert window.gamma1_hat(0.5) == full == pytest.approx(20.0)


def test_local_scan_root_rejected_by_tolerance_falls_back():
    # a jump at 1.1 brackets no root: Brent stops there with |residual| = 1
    window = ScriptedWindow(lambda g: np.sign(g - 1.1) if g < 10.0 else 15.0 - g)
    local, full = local_and_full(window)
    assert local is None
    assert window.gamma1_hat(0.5) == full == pytest.approx(15.0)


def test_local_root_not_closer_than_window_edge_falls_back():
    inside = np.sqrt(GRID[MID + 6] * GRID[MID + 7])  # near the upper window edge
    outside = np.sqrt(GRID[MID - 10] * GRID[MID - 9])  # below the lower edge, nearer
    assert abs(outside - 1.0) < abs(inside - 1.0)
    window = ScriptedWindow(lambda g: (g - outside) * (g - inside))
    local, full = local_and_full(window)
    assert local is None
    assert window.gamma1_hat(0.5) == full == pytest.approx(outside)


@pytest.mark.parametrize("reference, root", [
    (GRID[3], np.sqrt(GRID[13] * GRID[14])),
    (1e-9, np.sqrt(GRID[13] * GRID[14])),
    (GRID[-4], np.sqrt(GRID[-14] * GRID[-15])),
    (100.0, np.sqrt(GRID[-14] * GRID[-15])),
])
def test_local_scan_window_clipped_at_grid_end(reference, root):
    # the clipped side's edge is a grid end, which no unscanned root lies beyond,
    # so a root farther away than that edge is still accepted
    window = ScriptedWindow(lambda g: g - root, reference)
    local, full = local_and_full(window)
    assert local == full == window.gamma1_hat(0.5)
    assert local == pytest.approx(root)


def test_local_scan_no_root_raises_like_full_scan():
    window = ScriptedWindow(lambda g: 1.0)
    assert window._local_root(0.5, SolverOptions()) is None
    with pytest.raises(NoRootError):
        window.estimate(0.5)
    with pytest.raises(NoRootError, match="no root in bracket"):
        window.gamma1_hat(0.5)
    censored = ordered_from_arrays([1, 2, 3, 4, 5], [1, 1, 0, 0, 0])
    with pytest.raises(NoRootError, match="all top observations censored"):
        MdpdWindow(censored, 3).gamma1_hat(0.5)


def test_local_scan_tie_takes_the_lower_root(monkeypatch):
    # roots 0.75 and 1.25 are exactly 0.25 from the reference 1.0; Brent is
    # stubbed to return them exactly, so only min()'s first-wins rule decides
    def exact_brentq(f, a, b, **kwargs):
        return (0.75 if b < 1.0 else 1.25), SimpleNamespace(iterations=1)

    monkeypatch.setattr(estimators, "brentq", exact_brentq)
    window = ScriptedWindow(lambda g: (g - 0.75) * (g - 1.25))
    local, full = local_and_full(window)
    assert local == full == 0.75
    assert window.estimate(0.5).all_roots == (0.75, 1.25)


@pytest.mark.parametrize("alpha, options", [
    (0.0, SolverOptions()),
    (0.5, SolverOptions(domain_lo=50.0, domain_hi=1e-6)),
    (0.5, SolverOptions(grid_points=15)),
])
def test_local_scan_not_used_where_it_does_not_apply(alpha, options):
    rng = np.random.default_rng(8)
    s = ordered_from_arrays(rng.pareto(2.0, 300) + 1, (rng.random(300) < 0.7).astype(int))
    window = MdpdWindow(s, 60)
    assert window._local_root(alpha, options) is None
    assert window.gamma1_hat(alpha, options) == window.estimate(alpha, options).gamma1_hat


def test_local_scan_calls_brent_through_the_module(monkeypatch):
    calls = []
    brentq = estimators.brentq

    def counting_brentq(*args, **kwargs):
        calls.append(args[1:3])
        return brentq(*args, **kwargs)

    monkeypatch.setattr(estimators, "brentq", counting_brentq)
    window = ScriptedWindow(lambda g: g - 1.1)
    assert window._local_root(0.5, SolverOptions()) == pytest.approx(1.1)
    assert len(calls) == 1 and calls[0][0] < 1.1 < calls[0][1]


# estimators.brentq against scipy.optimize.brentq, which it ports


def scipy_brentq_like_the_port(f, a, b, args, xtol, rtol, maxiter):
    return scipy_brentq(f, a, b, args=args, xtol=xtol, rtol=rtol, maxiter=maxiter,
                        full_output=True)


def brent_outcomes(f, a, b, args=(), xtol=2e-12, rtol=4 * np.finfo(float).eps, maxiter=100):
    """(root bits, iterations, calls), or the error, of the port and of scipy."""
    outcomes = []
    for solve in (estimators.brentq, scipy_brentq_like_the_port):
        try:
            root, info = solve(f, a, b, args, xtol, rtol, maxiter)
            outcomes.append((root.hex(), info.iterations, info.function_calls))
        except (ValueError, RuntimeError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def test_brentq_port_is_scipy_on_random_polynomials():
    # coefficients down to 1e-250 underflow f(a)*f(b) and the step formulas'
    # divisors, which exercises the zero-divisor path; tolerances and maxiter
    # vary, and some brackets have no sign change or run out of iterations
    rng = np.random.default_rng(0)
    kinds = set()
    for trial in range(3000):
        coef = rng.normal(size=rng.integers(2, 7)) * 10.0 ** rng.integers(-250, 5)
        a, b = rng.normal(size=2) * 10.0 ** rng.integers(-3, 3)
        xtol, rtol, maxiter = [(1e-14, 8.9e-16, 100), (2e-12, 4 * np.finfo(float).eps, 200),
                               (1e-6, 1e-8, 5)][trial % 3]
        port, scipy = brent_outcomes(lambda x, c: float(np.polyval(c, x)), a, b, (coef,),
                                     xtol, rtol, maxiter)
        assert port == scipy, (trial, port, scipy)
        kinds.add(port[0] if isinstance(port[0], type) else "root")
    assert kinds == {"root", ValueError, RuntimeError}


@pytest.mark.parametrize("f,a,b,root", [
    (lambda x: x - 0.5, 0.5, 1.0, 0.5),
    (lambda x: x - 0.5, 0.0, 0.5, 0.5),
    (lambda x: 0.0, 0.0, 0.5, 0.0),  # the lower end wins
])
def test_brentq_port_returns_a_zero_at_a_bracket_end_after_no_iteration(f, a, b, root):
    # scipy returns the same end after the same 2 calls, but leaves its
    # iteration count unset there, so it reads whatever was in memory
    (port_root, iterations, calls), (scipy_root, _, scipy_calls) = brent_outcomes(f, a, b)
    assert port_root == scipy_root == root.hex()
    assert (iterations, calls) == (0, scipy_calls) == (0, 2)


@pytest.mark.parametrize("f,a,b,maxiter", [
    (lambda x: x + 1.0, 0.0, 0.5, 100),  # no sign change: ValueError
    (lambda x: x ** 3 - 2.0, 0.0, 5.0, 3),  # maxiter exhausted: RuntimeError
    (lambda x: x ** 3 - 2.0, 0.0, 5.0, 12),  # converges on the last allowed iteration
    (lambda x: x ** 3 - 2.0, 5.0, 0.0, 100),  # reversed bracket
])
def test_brentq_port_is_scipy_at_the_edges(f, a, b, maxiter):
    port, scipy = brent_outcomes(f, a, b, maxiter=maxiter)
    assert port == scipy


def test_brentq_port_is_scipy_on_sweep_windows(monkeypatch):
    """Every full-scan estimate of the sweep-eps40 cells, solved by both solvers.

    Fifty replicates of the README sweep spec (n = 1000, gamma1 = 0.3,
    p = 0.55, theta1 = 0.6, seed 0) at epsilon 0 and 0.4, k = 50..300 and
    alpha in {0.1, 0.5, 1}: roots, residuals, iterations, brackets and all
    roots must be equal, and so must every call's root, iterations and calls.
    """
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.55))
    windows = [MdpdWindow(ordered_from_arrays(*sample_contaminated_censored(
                   1000, model, ContaminationSpec(epsilon=eps, theta1=0.6), 0, r)), k)
               for eps in (0.0, 0.4) for r in range(50) for k in range(50, 301, 50)]
    outcomes = {}
    for solver in (estimators.brentq, scipy_brentq_like_the_port):
        calls = []

        def recording(*args, solver=solver, **kwargs):
            root, info = solver(*args, **kwargs)
            calls.append((root.hex(), info.iterations, info.function_calls))
            return root, info

        monkeypatch.setattr(estimators, "brentq", recording)
        results = []
        for window in windows:
            for alpha in (0.1, 0.5, 1.0):
                try:
                    results.append(window.estimate(alpha))
                except NoRootError as exc:
                    results.append(str(exc))
        outcomes[solver] = results, calls
    (port, port_calls), (scipy, scipy_calls) = outcomes.values()
    assert len(port) == 1800 and len(port_calls) >= 1800
    assert port == scipy
    assert port_calls == scipy_calls


# twelve windows of contaminated, censored samples: the Nelson-Aalen weights
# of each sum to 1.01-1.04, so MNS and the normalised weighted mean differ
SEEDED_WINDOWS = [(seed, 50 + 25 * seed) for seed in range(12)]


def seeded_sample(seed: int) -> OrderedSample:
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.7))
    return ordered_from_arrays(*sample_contaminated_censored(
        1000, model, ContaminationSpec(epsilon=0.1, theta1=0.6), seed=seed))


@pytest.mark.parametrize("seed, k", SEEDED_WINDOWS)
def test_window_reference_is_the_dot_of_its_weights_and_log_excesses(seed, k):
    window = MdpdWindow(seeded_sample(seed), k)
    assert window.reference == float(np.dot(window.weights, window.log_exc))


@pytest.mark.parametrize("seed, k", SEEDED_WINDOWS)
def test_small_alpha_tends_to_the_normalised_weighted_mean_not_to_mns(seed, k):
    sample = seeded_sample(seed)
    weights, (log_exc, _) = mdpd_weights(sample, k), top_log_excesses(sample, k)
    limit = float(np.dot(weights, log_exc) / np.sum(weights))
    assert abs(mdpd_estimate(sample, TailConfig(k, 1e-6)).gamma1_hat - limit) < 1e-5
    # alpha = 0 is MNS, sum a_ik L_i, which is not that limit
    assert abs(mdpd_estimate(sample, TailConfig(k, 0.0)).gamma1_hat - limit) > 1e-3
