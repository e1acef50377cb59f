from concurrent.futures import ThreadPoolExecutor
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


@pytest.mark.parametrize("alpha", [-0.5, np.nan, np.inf])
def test_window_estimate_checks_alpha_as_tail_config_does(toy, alpha):
    # a negative alpha has roots too, which would be reported as MDPD estimates
    with pytest.raises(ValueError, match=f"alpha={alpha} must be finite and >= 0"):
        MdpdWindow(toy, 2).estimate(alpha)


@pytest.mark.parametrize("alpha, domain", [
    (3e152, (1e-6, 50.0)),  # (1 + alpha + 50 alpha)^2 overflows
    (np.float64(1e300), (1e-6, 50.0)),
    (0.5, (1e300, 1e308)),
    (1e-200, (1e-6, 1e300)),  # alpha g (g + 1) overflows where the square does not
    (1e-300, (1e-320, 1.0)),  # the exponent alpha (1 + 1/g) L overflows
])
def test_window_estimate_refuses_an_alpha_whose_residual_leaves_the_float_range(toy, alpha,
                                                                               domain):
    # there the residual overflows, with a warning, and every grid row could read as a root
    with pytest.raises(ValueError, match="out of the float range on the domain"):
        MdpdWindow(toy, 2).estimate(alpha, SolverOptions(*domain))


def test_window_estimate_takes_the_largest_alpha_in_range_at_the_default_domain(toy):
    # the model term dominates every residual there, which is then finite and negative
    with pytest.raises(NoRootError, match="no root in bracket"):
        MdpdWindow(toy, 2).estimate(2.5e152)


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
    options = SolverOptions(domain_lo=40.0, domain_hi=50.0)
    with pytest.raises(NoRootError) as excinfo:
        mdpd_estimate(s, TailConfig(k=2, alpha=0.5), options)
    assert excinfo.value.grid is not None
    assert excinfo.value.residuals.shape == excinfo.value.grid.shape


def test_no_root_meets_a_tolerance_below_every_residual():
    # the window has sign changes, but no Brent root's residual is within
    # the smallest positive double of 0
    sample = ordered_from_arrays((1 - np.random.default_rng(0).random(500)) ** -0.5,
                                 np.ones(500, dtype=int))
    window = MdpdWindow(sample, 50)
    options = SolverOptions(tol_abs=5e-324)
    with pytest.raises(NoRootError, match="^no root met the residual tolerance$") as excinfo:
        window.estimate(0.5, options)
    assert excinfo.value.grid is options.grid
    assert excinfo.value.residuals.tobytes() == window._residuals(options.grid, 0.5).tobytes()


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
    narrow = SolverOptions(domain_lo=0.05, domain_hi=5.0)
    for k in (5, 60, 200):
        window = MdpdWindow(s, k)
        for alpha, options in [(0.5, SolverOptions()), (0.0, SolverOptions()),
                               (0.1, narrow), (1.0, SolverOptions()), (0.3, narrow)]:
            assert window.estimate(alpha, options) == mdpd_estimate(
                s, TailConfig(k=k, alpha=alpha), options)


def test_window_shared_by_threads_gives_the_serial_estimates():
    # one window, its cached arrays unbuilt, solved at 40 alphas from 8
    # threads at once: numpy releases the GIL inside each residual, so any
    # state that one solve writes and another reads would show here
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.55))
    sample = ordered_from_arrays(*sample_contaminated_censored(
        20000, model, ContaminationSpec(epsilon=0.1, theta1=0.6), seed=5))
    alphas = np.linspace(0.025, 1.0, 40).tolist()
    for k in (300, 2000, 5000):
        serial = [MdpdWindow(sample, k).estimate(alpha) for alpha in alphas]
        shared = MdpdWindow(sample, k)
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(shared.estimate, alphas)) == serial


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
                dict(tol_abs=float("inf")), dict(domain_lo=2.0, domain_hi=2.0)):
        with pytest.raises(ValueError):
            SolverOptions(**bad)
    # at the first solve such bounds gave numpy's own error, overflow
    # warnings and a NoRootError, or a nan grid; now the options say why
    nan, inf = float("nan"), float("inf")
    for lo, hi in ((0.0, 50.0), (1e-6, 0.0), (-50.0, -1e-6), (-1.0, 5.0), (nan, 50.0),
                   (1e-6, nan), (1e-6, inf), (inf, 50.0), (-inf, 5.0)):
        with pytest.raises(ValueError) as excinfo:
            SolverOptions(domain_lo=lo, domain_hi=hi)
        assert str(excinfo.value) == f"domain bounds ({lo}, {hi}) must be positive and finite"
    assert SolverOptions(domain_lo=50.0, domain_hi=1e-6).grid[0] == 50.0
    grid = SolverOptions(domain_lo=0.5, domain_hi=8.0).grid
    assert grid.size == estimators.GRID_POINTS and (grid[0], grid[-1]) == (0.5, 8.0)


# The local scan of the sweep's block solve against the full scan of
# estimate, on residual functions whose roots are placed around the
# reference by hand.
GRID = SolverOptions().grid
# the narrow window is GRID[MID - 3:MID + 3], the wide one GRID[MID - 8:MID + 8]
MID = int(np.searchsorted(GRID, 1.0))


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


def scripted(*windows):
    """The residual callable of _local_roots for cells whose residuals are the windows' f."""
    def residual(cells, g):
        cells = np.arange(len(windows))[cells]
        return np.array([[windows[c].f(float(x)) for x in row]
                         for c, row in zip(cells, g)]).reshape(g.shape)
    return residual


def local_roots(*windows):
    reference = np.array([w.reference for w in windows])
    return estimators._local_roots(scripted(*windows), reference, reference.size)


def full_estimate(window, alpha=0.5):
    """The full scan's estimate, NaN where it raises."""
    try:
        return window.estimate(alpha).gamma1_hat
    except EstimationError:
        return np.nan


def local_and_full(window, alpha=0.5):
    local, full = local_roots(window)[0], full_estimate(window, alpha)
    assert np.array(local).tobytes() == np.array(full).tobytes()
    return local, full


def scanned_rows(window):
    """The rows of each grid scan that _local_roots asks of one window's residual."""
    rows, residual = [], scripted(window)

    def recorded(cells, g):
        if g.size > g.shape[0]:  # a Brent step asks one point a bracket
            rows.append(g.shape[1])
        return residual(cells, g)

    estimators._local_roots(recorded, np.array([window.reference]), 1)
    return rows


# the scanned rows of a cell that reaches the whole grid, ten rows at a time
FULL_GRID = [10] * 20


# a root in the grid step that holds the reference 1.0, nearer than both narrow edges
NEAR = np.sqrt(GRID[MID - 1] * GRID[MID])
# a root below the narrow window and within the wide one, nearer than both of its edges
BELOW_NARROW = np.sqrt(GRID[MID - 5] * GRID[MID - 4])


def test_local_scan_accepts_a_root_inside_the_window():
    window = ScriptedWindow(lambda g: g - 1.1)
    local, full = local_and_full(window)
    assert local == full == pytest.approx(1.1)


@pytest.mark.parametrize("offset", [0.0, 1e-20])
def test_local_scan_root_on_a_grid_row(offset):
    # a residual of exactly 0 (a root at the row) or of 1e-20 (a sign change
    # just below it) on a grid row: the local scan's values are the full
    # scan's, so both find the same root
    window = ScriptedWindow(lambda g: g - GRID[MID + 2] + offset)
    local, full = local_and_full(window)
    assert local == full == pytest.approx(GRID[MID + 2], rel=1e-12)


def test_narrow_scan_root_is_the_full_scans_root():
    window = ScriptedWindow(lambda g: g - NEAR)
    assert scanned_rows(window) == [6]
    local, full = local_and_full(window)
    assert local == full == pytest.approx(NEAR)


def test_root_beyond_the_narrow_rows_is_found_by_the_wide_scan():
    # the narrow rows hold no sign change, so the other ten rows are scanned
    window = ScriptedWindow(lambda g: g - BELOW_NARROW)
    assert scanned_rows(window) == [6, 10]
    local, full = local_and_full(window)
    assert local == full == pytest.approx(BELOW_NARROW)


def test_narrow_bracket_failing_the_tolerance_scans_the_full_grid():
    # the jump at NEAR is a sign change that the narrow rows could prove
    # nearest, so the wide rows are not scanned; its Brent root fails
    # tol_abs, which leaves the root below the narrow window to the full grid
    window = ScriptedWindow(lambda g: g - BELOW_NARROW if g < NEAR else -1.0)
    assert scanned_rows(window) == [6] + FULL_GRID
    local, full = local_and_full(window)
    assert local == full == pytest.approx(BELOW_NARROW)


def test_narrow_cell_proves_its_winner_on_the_narrow_window():
    # the jump at NEAR settles the cell on its narrow rows and fails tol_abs;
    # the one narrow root left lies beyond the narrow reach, and a nearer
    # root lies just below the narrow rows, which the wide reach would miss
    above = np.sqrt(GRID[MID + 1] * GRID[MID + 2])
    below = np.sqrt(GRID[MID - 4] * GRID[MID - 3])
    assert abs(below - 1.0) < abs(above - 1.0) < 1.0 - GRID[MID - 8]
    window = ScriptedWindow(lambda g: g - below if g < NEAR else g - above)
    assert scanned_rows(window) == [6] + FULL_GRID
    local, full = local_and_full(window)
    assert local == full == pytest.approx(below)


def test_local_scan_without_sign_change_scans_the_full_grid():
    window = ScriptedWindow(lambda g: g - 20.0)
    assert scanned_rows(window) == [6, 10] + FULL_GRID
    local, full = local_and_full(window)
    assert local == full == pytest.approx(20.0)


def test_local_scan_root_rejected_by_tolerance_scans_the_full_grid():
    # a jump at 1.1 brackets no root: Brent stops there with |residual| = 1
    window = ScriptedWindow(lambda g: np.sign(g - 1.1) if g < 10.0 else 15.0 - g)
    assert scanned_rows(window) == [6, 10] + FULL_GRID
    local, full = local_and_full(window)
    assert local == full == pytest.approx(15.0)


def test_local_root_not_closer_than_window_edge_scans_the_full_grid():
    inside = np.sqrt(GRID[MID + 6] * GRID[MID + 7])  # near the upper window edge
    outside = np.sqrt(GRID[MID - 10] * GRID[MID - 9])  # below the lower edge, nearer
    assert abs(outside - 1.0) < abs(inside - 1.0)
    window = ScriptedWindow(lambda g: (g - outside) * (g - inside))
    assert scanned_rows(window) == [6, 10] + FULL_GRID
    local, full = local_and_full(window)
    assert local == full == pytest.approx(outside)


CLIPPED = [
    (GRID[3], np.sqrt(GRID[13] * GRID[14])),
    (1e-9, np.sqrt(GRID[13] * GRID[14])),
    (GRID[-4], np.sqrt(GRID[-14] * GRID[-15])),
    (100.0, np.sqrt(GRID[-14] * GRID[-15])),
]


@pytest.mark.parametrize("reference, root", CLIPPED)
def test_local_scan_window_clipped_at_grid_end(reference, root):
    # the clipped side's edge is a grid end, which no unscanned root lies beyond,
    # so a root farther away than that edge is still accepted
    window = ScriptedWindow(lambda g: g - root, reference)
    local, full = local_and_full(window)
    assert local == full == pytest.approx(root)


def test_local_scan_no_root_is_nan_where_the_full_scan_raises():
    window = ScriptedWindow(lambda g: 1.0)
    assert scanned_rows(window) == [6, 10] + FULL_GRID
    assert np.isnan(local_roots(window)[0])
    with pytest.raises(NoRootError, match="no root in bracket"):
        window.estimate(0.5)


def test_local_scan_tie_takes_the_lower_root(monkeypatch):
    # roots 0.75 and 1.25 are exactly 0.25 from the reference 1.0; the
    # kernel and brentq are stubbed to return them exactly, so only the
    # first-of-equals rule decides
    def exact_brent_many(f, a, b, **kwargs):
        roots = np.where(b < 1.0, 0.75, 1.25)
        return roots, np.ones(a.size, dtype=int), f(np.arange(a.size), roots)

    def exact_brentq(f, a, b, **kwargs):
        return (0.75 if b < 1.0 else 1.25), SimpleNamespace(iterations=1)

    monkeypatch.setattr(estimators, "_brent_many", exact_brent_many)
    monkeypatch.setattr(estimators, "brentq", exact_brentq)
    window = ScriptedWindow(lambda g: (g - 0.75) * (g - 1.25))
    local, full = local_and_full(window)
    assert local == full == 0.75
    assert window.estimate(0.5).all_roots == (0.75, 1.25)


def test_local_scan_tie_takes_an_exact_zero_before_a_brent_root(monkeypatch):
    # the residual is exactly 0 on the grid row x0 and changes sign at
    # 2 - x0, which the stubbed solvers return exactly; both are |x0 - 1|
    # from the reference 1.0, and the exact zero comes first
    x0 = GRID[MID + 2]
    mirror = 2.0 - x0
    assert mirror - 1.0 == 1.0 - x0 and mirror not in GRID

    def exact_brent_many(f, a, b, **kwargs):
        roots = np.full(a.size, mirror)
        return roots, np.ones(a.size, dtype=int), f(np.arange(a.size), roots)

    def exact_brentq(f, a, b, **kwargs):
        return mirror, SimpleNamespace(iterations=1)

    monkeypatch.setattr(estimators, "_brent_many", exact_brent_many)
    monkeypatch.setattr(estimators, "brentq", exact_brentq)
    window = ScriptedWindow(lambda g: (g - x0) * (g - mirror))
    local, full = local_and_full(window)
    assert local == full == x0
    assert window.estimate(0.5).all_roots == (x0, mirror)


def test_local_scan_of_many_cells_is_each_cells_own():
    # every scripted case above in one call: each cell gets the value it
    # gets alone, so no cell's scan, brackets or winner leak into another's
    inside = np.sqrt(GRID[MID + 6] * GRID[MID + 7])
    outside = np.sqrt(GRID[MID - 10] * GRID[MID - 9])
    windows = [ScriptedWindow(lambda g: g - 1.1), ScriptedWindow(lambda g: g - 20.0),
               ScriptedWindow(lambda g: g - GRID[MID + 2]),
               ScriptedWindow(lambda g: (g - outside) * (g - inside)),
               ScriptedWindow(lambda g: 1.0), ScriptedWindow(lambda g: (g - 0.9) * (g - 1.05)),
               *(ScriptedWindow(lambda g, root=root: g - root, reference)
                 for reference, root in CLIPPED),
               ScriptedWindow(lambda g: g - NEAR), ScriptedWindow(lambda g: g - BELOW_NARROW),
               ScriptedWindow(lambda g: g - BELOW_NARROW if g < NEAR else -1.0)]
    together = local_roots(*windows)
    alone = np.array([local_roots(window)[0] for window in windows])
    assert together.tobytes() == alone.tobytes()
    assert together.tobytes() == np.array([full_estimate(w) for w in windows]).tobytes()
    assert np.isnan(together).tolist() == [False] * 4 + [True] + [False] * 8
    assert together[5] == pytest.approx(1.05)


def test_block_solve_is_each_windows_estimate():
    # k = 1 and 2, a fully censored top window, and alpha = 0, whose value
    # is MNS, or NaN where MNS is 0
    rng = np.random.default_rng(8)
    samples = [ordered_from_arrays(rng.pareto(2.0, 300) + 1,
                                   (rng.random(300) < 0.7).astype(int)) for _ in range(6)]
    samples.append(ordered_from_arrays(np.arange(1.0, 301.0), np.r_[np.ones(200), np.zeros(100)]))
    alphas = (0.0, 0.1, 0.5, 1.0)
    tops = np.stack([s.z_sorted for s in samples])
    deltas = np.stack([s.delta_concomitant for s in samples])
    k_grid = (1, 2, 60, 150, 299)
    # every k in one solve, and each k alone
    block = estimators._solve_windows(tops, deltas, k_grid, alphas)
    assert block.shape == (len(samples), len(k_grid), len(alphas))
    for ki, k in enumerate(k_grid):
        alone = estimators._solve_windows(tops, deltas, (k,), alphas)
        assert alone.tobytes() == block[:, ki:ki + 1].tobytes(), k
        for r, sample in enumerate(samples):
            for a, alpha in enumerate(alphas):
                try:
                    want = MdpdWindow(sample, k).estimate(alpha).gamma1_hat
                except EstimationError:
                    want = np.nan
                assert np.array(want).tobytes() == block[r, ki, a].tobytes(), (k, r, alpha)
    assert np.isnan(estimators._solve_windows(tops[-1:], deltas[-1:], (60,), alphas)).all()


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


def sweep_samples(replicates):
    """Ordered samples of the sweep-eps40 spec (n = 1000, seed 0)."""
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.55))
    return [ordered_from_arrays(*sample_contaminated_censored(
                1000, model, ContaminationSpec(epsilon=0.4, theta1=0.6), 0, r))
            for r in range(replicates)]


def test_stacked_windows_are_each_windows_arrays():
    samples = sweep_samples(50)
    tops = np.stack([s.z_sorted[-301:] for s in samples])
    deltas = np.stack([s.delta_concomitant[-301:] for s in samples])
    for k in range(50, 301, 50):
        stacked = estimators._stacked_windows(tops, deltas, k)
        for r, sample in enumerate(samples):
            window = MdpdWindow(sample, k)
            assert window.reference == mns_estimator(sample, k)
            expected = (window.log_exc, mdpd_weights(sample, k), window.reference)
            assert [a[r].tobytes() for a in stacked] == [np.asarray(e).tobytes()
                                                        for e in expected]


@pytest.mark.parametrize("k", [50, 300, 1000, 5000])
def test_stacked_residuals_are_each_windows_residuals(k):
    # each value is its own one-row product, so stacking windows and points
    # leaves every bit of MdpdWindow.residual
    rng = np.random.default_rng(k)
    samples = [ordered_from_arrays(rng.pareto(1.5, k + 301) + 1,
                                   (rng.random(k + 301) < 0.6).astype(int)) for _ in range(5)]
    windows = [MdpdWindow(s, k) for s in samples]
    g = rng.uniform(0.05, 3.0, (5, 7))
    alpha = rng.choice([0.1, 0.5, 1.0], (5, 1))
    stacked = estimators._stacked_residuals(
        alpha, g, *(np.stack([getattr(w, name) for w in windows])
                    for name in ("log_exc", "weights")))
    expected = [[w.residual(x, a) for x in row] for w, row, (a,) in zip(windows, g, alpha)]
    assert stacked.tobytes() == np.array(expected).tobytes()


# estimators._brent_many on a batch of brackets against each bracket solved
# alone, by estimators.brentq, its one-bracket case

TOLERANCES = [(1e-14, 8.9e-16, 100), (2e-12, 4 * np.finfo(float).eps, 200), (1e-6, 1e-8, 5)]


def polynomial_brackets():
    """The brackets of test_brentq_port_is_scipy_on_random_polynomials, by tolerance set.

    Each is (coefficients, a, b, outcome), the outcome being brentq's
    (root, iterations) or the type of the error it raised.
    """
    rng = np.random.default_rng(0)
    brackets = [[], [], []]
    for trial in range(3000):
        coef = rng.normal(size=rng.integers(2, 7)) * 10.0 ** rng.integers(-250, 5)
        a, b = rng.normal(size=2) * 10.0 ** rng.integers(-3, 3)
        xtol, rtol, maxiter = TOLERANCES[trial % 3]
        try:
            root, info = estimators.brentq(lambda x, c: float(np.polyval(c, x)), a, b, (coef,),
                                           xtol, rtol, maxiter)
            outcome = (root, info.iterations)
        except (ValueError, RuntimeError) as exc:
            outcome = type(exc)
        brackets[trial % 3].append((coef, a, b, outcome))
    return brackets


def polynomials(coefs):
    return lambda idx, x: np.array([np.polyval(coefs[j], xj) for j, xj in zip(idx, x)])


def test_brent_many_batch_is_each_bracket_alone_on_random_polynomials():
    # one call per tolerance set, over every bracket where brentq finds a
    # root; coefficients down to 1e-250 take the zero-divisor path
    for (xtol, rtol, maxiter), brackets in zip(TOLERANCES, polynomial_brackets()):
        solved = [b for b in brackets if isinstance(b[3], tuple)]
        assert len(solved) > 30
        coefs, a, b, outcomes = zip(*solved)
        roots, iterations, _ = estimators._brent_many(polynomials(coefs), np.array(a),
                                                      np.array(b), xtol, rtol, maxiter)
        assert [r.hex() for r in roots] == [root.hex() for root, _ in outcomes]
        assert iterations.tolist() == [its for _, its in outcomes]


def test_brent_many_from_known_end_values_is_the_same_and_returns_f_at_each_root():
    # given f at both bracket ends, the kernel does not evaluate them again
    # and finds the same roots after the same iterations; the values it
    # returns are f at each root, bit for bit
    for (xtol, rtol, maxiter), brackets in zip(TOLERANCES, polynomial_brackets()):
        coefs, a, b, _ = zip(*(b for b in brackets if isinstance(b[3], tuple)))
        a, b, f = np.array(a), np.array(b), polynomials(coefs)
        called = []

        def recorded(idx, x):
            called.append(x.copy())
            return f(idx, x)

        every = np.arange(a.size)
        want = estimators._brent_many(f, a, b, xtol, rtol, maxiter)
        got = estimators._brent_many(recorded, a, b, xtol, rtol, maxiter,
                                     fa=f(every, a), fb=f(every, b))
        assert [r.hex() for r in got[0]] == [r.hex() for r in want[0]]
        assert got[1].tolist() == want[1].tolist()
        assert got[2].tobytes() == want[2].tobytes() == f(every, got[0]).tobytes()
        # one call per iteration after the first, none at the ends
        assert len(called) == max(want[1]) - 1 and called[0].size == np.sum(want[1] > 1)


def test_brent_many_raises_where_brentq_runs_out_of_iterations():
    (xtol, rtol, maxiter), brackets = TOLERANCES[2], polynomial_brackets()[2]
    exhausted = [bracket for bracket in brackets if bracket[3] is RuntimeError]
    solved = [bracket for bracket in brackets if isinstance(bracket[3], tuple)]
    assert exhausted
    for mixed in ([exhausted[0]], [*solved[:5], exhausted[0], *solved[5:10]]):
        coefs, a, b, _ = zip(*mixed)
        with pytest.raises(RuntimeError, match=f"after {maxiter} iterations"):
            estimators._brent_many(polynomials(coefs), np.array(a), np.array(b),
                                   xtol, rtol, maxiter)


def test_brent_many_returns_a_zero_at_a_bracket_end_after_no_iteration():
    # the brackets of the brentq test above, and one that iterates, in one call
    functions = [lambda x: x - 0.5, lambda x: x - 0.5, lambda x: 0.0, lambda x: x ** 3 - 2.0]
    a, b = np.array([0.5, 0.0, 0.0, 0.0]), np.array([1.0, 0.5, 0.5, 5.0])
    def f(idx, x):
        return np.array([functions[j](xj) for j, xj in zip(idx, x)])

    root, info = estimators.brentq(functions[3], 0.0, 5.0, (), 2e-12, 4 * np.finfo(float).eps, 100)
    every = np.arange(a.size)
    for ends in ({}, {"fa": f(every, a), "fb": f(every, b)}):
        roots, iterations, values = estimators._brent_many(
            f, a, b, 2e-12, 4 * np.finfo(float).eps, 100, **ends)
        assert roots.tolist() == [0.5, 0.5, 0.0, root]
        assert iterations.tolist() == [0, 0, 0, info.iterations] and info.iterations > 0
        assert values[:3].tolist() == [0.0, 0.0, 0.0] and values[3] == functions[3](root)


def test_brent_many_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        estimators._brent_many(lambda idx, x: x + 1.0, np.array([0.0, -2.0]),
                               np.array([0.5, 0.5]), 2e-12, 4 * np.finfo(float).eps, 100)


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
