"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package at desk scale
and prints a single PASS/FAIL line (bypassing capture) so the acceptance
status is visible in any test log.  Tolerances and runtime budgets are
asserted, not just reported.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from tailcens import (
    ContaminationSpec,
    GaussianOracleConfig,
    ModelParams,
    SweepSpec,
    TailConfig,
    eta_star,
    gamma2_from_p,
    mdpd_estimate,
    mns_estimator,
    mu,
    ordered_from_arrays,
    order_sample,
    phi_star,
    run_sweep,
    sample_contaminated_censored,
    sigma_squared,
    sigma_squared_mc,
)
from tailcens.cli import main as cli_main

from oracles import mdpd_residual, phi

SIGMA_GRID = [(0.1, 0.3, 0.7), (0.3, 0.3, 0.6), (0.5, 0.5, 0.75),
              (1.0, 1.0, 0.6), (0.3, 0.5, 0.7), (0.5, 0.3, 0.55)]


_CAPMAN = None


@pytest.fixture(autouse=True)
def _live_reporting(request):
    """Let report() write through pytest's output capture."""
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def report(number, passed, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} — {detail}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert passed, line


def draw_sample(n, gamma1, p, seed, epsilon=0.0, theta1=1.0, replicate=0):
    model = ModelParams(gamma1=gamma1, gamma2=gamma2_from_p(gamma1, p))
    cont = ContaminationSpec(epsilon=epsilon, theta1=theta1)
    obs = sample_contaminated_censored(n, model, cont, seed=seed,
                                       replicate=replicate)
    return order_sample(obs)


def test_criterion_1_alpha_zero_reduction():
    """alpha=0 solve is bit-for-bit the explicit weighted-sum estimator."""
    start = time.time()
    exact = 0
    for seed in range(100):
        sample = draw_sample(200, gamma1=0.5, p=0.7, seed=seed)
        k = 20 + (seed % 80)
        direct = mns_estimator(sample, k)
        solved = mdpd_estimate(sample, TailConfig(k=k, alpha=0.0)).gamma1_hat
        exact += (solved == direct)
    elapsed = time.time() - start
    report(1, exact == 100 and elapsed < 10,
           f"{exact}/100 samples bit-identical in {elapsed:.2f}s (budget 10s)")


def test_criterion_2_root_residuals():
    """Every root the solver reports satisfies |residual| <= 1e-10."""
    worst = 0.0
    n_roots = 0
    scenarios = [
        (0.0, 0.6, 42), (0.15, 0.6, 7), (0.40, 0.6, 11), (0.25, 0.8, 3),
    ]
    for epsilon, theta1, seed in scenarios:
        for gamma1, p in [(0.3, 0.7), (0.5, 0.55), (1.0, 0.8)]:
            sample = draw_sample(1000, gamma1, p, seed,
                                 epsilon=epsilon, theta1=theta1)
            for alpha in (0.1, 0.3, 0.5, 1.0):
                for k in (50, 150, 300):
                    config = TailConfig(k=k, alpha=alpha)
                    result = mdpd_estimate(sample, config)
                    for root in result.all_roots:
                        res = abs(mdpd_residual(root, sample, config))
                        worst = max(worst, res)
                        n_roots += 1
                    worst = max(worst, abs(result.residual))
    report(2, worst <= 1e-10,
           f"max |residual| {worst:.3e} over {n_roots} roots (bound 1e-10)")


def test_criterion_3_consistency():
    """MAE shrinks monotonically in n and ends below 0.05."""
    start = time.time()
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.7))
    cont = ContaminationSpec(epsilon=0.0)
    maes = []
    for n in (500, 2000, 8000):
        k = int(round(n ** 0.6))
        errors = []
        for rep in range(200):
            obs = sample_contaminated_censored(n, model, cont, seed=100,
                                               replicate=rep)
            result = mdpd_estimate(order_sample(obs), TailConfig(k=k, alpha=0.1))
            errors.append(abs(result.gamma1_hat - 0.3))
        maes.append(float(np.mean(errors)))
    elapsed = time.time() - start
    monotone = maes[0] > maes[1] > maes[2]
    report(3, monotone and maes[-1] < 0.05 and elapsed < 300,
           f"MAE {maes[0]:.4f} > {maes[1]:.4f} > {maes[2]:.4f}, "
           f"final < 0.05, in {elapsed:.1f}s (budget 300s)")


def test_criterion_4_robustness_ordering():
    """Under heavy contamination, alpha=0.5 beats alpha=0 in MSE for most k."""
    start = time.time()
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.55))
    spec = SweepSpec(n=1000, replicates=200, model=model,
                     contamination=ContaminationSpec(epsilon=0.40, theta1=0.6),
                     alphas=(0.0, 0.5), k_grid=(50, 100, 150, 200, 250, 300),
                     seed=0)
    result = run_sweep(spec, n_jobs=2)
    mse = {(k, alpha): m for k, alpha, _, m, _ in result.rows}
    wins = sum(mse[(k, 0.5)] < mse[(k, 0.0)] for k in spec.k_grid)
    elapsed = time.time() - start
    report(4, wins > len(spec.k_grid) // 2 and elapsed < 600,
           f"MSE(alpha=0.5) < MSE(alpha=0) at {wins}/6 k values "
           f"in {elapsed:.1f}s (budget 600s)")


def test_criterion_5_no_contamination_near_equivalence():
    """At epsilon=0 the robust fit costs almost nothing in bias."""
    diffs = []
    for gamma1 in (0.3, 0.5):
        model = ModelParams(gamma1=gamma1, gamma2=gamma2_from_p(gamma1, 0.55))
        spec = SweepSpec(n=1000, replicates=200, model=model,
                         contamination=ContaminationSpec(epsilon=0.0),
                         alphas=(0.0, 0.1), k_grid=(100,), seed=0)
        result = run_sweep(spec, n_jobs=2)
        bias = {alpha: b for _, alpha, b, _, _ in result.rows}
        diffs.append(abs(bias[0.1] - bias[0.0]))
    report(5, all(d < 0.05 for d in diffs),
           f"|bias gap| {diffs[0]:.4f}, {diffs[1]:.4f} (bound 0.05)")


def test_criterion_6_variance_cross_oracle():
    """Closed-form and Gaussian-process MC variances agree on a 6-point grid."""
    start = time.time()
    worst_z = 0.0
    worst_rel = 0.0
    for alpha, gamma1, p in SIGMA_GRID:
        gamma2 = gamma2_from_p(gamma1, p)
        exact = sigma_squared(alpha, gamma1, gamma2)
        estimate, stderr = sigma_squared_mc(
            alpha, gamma1, gamma2, GaussianOracleConfig(seed=0))
        worst_z = max(worst_z, abs(estimate - exact) / stderr)
        worst_rel = max(worst_rel, abs(estimate - exact) / exact)
    elapsed = time.time() - start
    report(6, worst_z < 3 and worst_rel < 0.05 and elapsed < 120,
           f"max {worst_z:.2f} MC stderr, max {worst_rel:.3%} relative, "
           f"in {elapsed:.1f}s (budget 120s)")


def test_criterion_7_eta_star_identity():
    """Closed-form curvature constant equals its defining integral."""
    grid = [(0.1, 0.3), (0.1, 1.0), (0.3, 0.5), (0.5, 0.5), (0.5, 2.0),
            (1.0, 0.3), (1.0, 1.0), (1.5, 0.7), (2.0, 0.4), (0.7, 1.3)]
    worst = 0.0
    for alpha, gamma1 in grid:
        def integrand(x):
            density = (1 / gamma1) * x ** (-(1 + 1 / gamma1))
            score = (1 / gamma1 ** 3) * (np.log(x) - gamma1) \
                * x ** (-(1 + 1 / gamma1))
            return score ** 2 * density ** (alpha - 1)

        val, _ = quad(integrand, 1, np.inf, limit=200)
        worst = max(worst, abs(eta_star(alpha, gamma1) - (1 + alpha) * val)
                    / ((1 + alpha) * val))
    report(7, worst < 1e-6,
           f"max relative gap {worst:.2e} over 10 grid points (bound 1e-6)")


def test_criterion_8_phi_star_and_mu_oracles():
    """phi_star matches direct quadrature; mu reproduces the 5/27 hand value."""
    worst = 0.0
    for alpha, gamma1 in [(0.1, 0.3), (0.5, 0.5), (1.0, 1.0), (2.0, 0.4)]:
        for x in (1.0, 2.5):
            val, _ = quad(lambda t: t ** (-1 / gamma1) * phi(t, alpha, gamma1),
                          x, np.inf, limit=200)
            worst = max(worst, abs(phi_star(x, alpha, gamma1) - val) / abs(val))
    mu_gap = abs(mu(1.0, 1.0, 0.0) - 5 / 27)
    report(8, worst < 1e-8 and mu_gap < 1e-8,
           f"phi_star max rel gap {worst:.2e} (bound 1e-8), "
           f"|mu - 5/27| = {mu_gap:.2e} (bound 1e-8)")


def test_criterion_9_outlier_injection_stability():
    """Gross outliers in the top of a realistic-size sample barely move the
    robust estimate while swinging the non-robust one."""
    n = 2754
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.7))
    z, delta = sample_contaminated_censored(n, model, ContaminationSpec(), seed=42)

    uncensored = np.flatnonzero(delta == 1)
    top10 = uncensored[np.argsort(z[uncensored])[-10:]]  # ascending
    z_injected = z.copy()
    z_injected[top10] = z[top10] * np.geomspace(18.0, 148.0, 10)

    clean = ordered_from_arrays(z, delta)
    dirty = ordered_from_arrays(z_injected, delta)
    shifts = {}
    for alpha in (0.0, 0.3):
        config = TailConfig(k=200, alpha=alpha)
        shifts[alpha] = abs(mdpd_estimate(dirty, config).gamma1_hat
                            - mdpd_estimate(clean, config).gamma1_hat)
    report(9, shifts[0.0] > 3 * shifts[0.3],
           f"alpha=0 shift {shifts[0.0]:.4f} vs alpha=0.3 shift "
           f"{shifts[0.3]:.4f} (need > 3x)")


def test_criterion_10_sweep_determinism(tmp_path):
    """Sweep outputs are byte-identical across runs and thread counts."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 400\ngamma1 = 0.3\np = 0.7\nreplicates = 8\n"
                   "alphas = 0,0.1,0.5\nk_min = 30\nk_max = 90\nk_step = 30\n"
                   "epsilon = 0.20\ntheta1 = 0.6\nseed = 5\n")
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    assert cli_main(["sweep", str(cfg), "--output-dir", str(dirs[0])]) == 0
    assert cli_main(["sweep", str(cfg), "--output-dir", str(dirs[1])]) == 0
    assert cli_main(["sweep", str(cfg), "--output-dir", str(dirs[2]),
                     "--threads", "4"]) == 0
    names = sorted(f.name for f in dirs[0].iterdir())
    identical = all(
        (dirs[0] / name).read_bytes() == (d / name).read_bytes()
        for d in dirs[1:] for name in names)
    report(10, identical and len(names) >= 3,
           f"{len(names)} output files byte-identical across reruns "
           "and 1 vs 4 threads")
