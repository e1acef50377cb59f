import multiprocessing
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from tailcens import (
    ContaminationSpec,
    EstimationError,
    MdpdWindow,
    ModelParams,
    SweepSpec,
    burr_quantile,
    frechet_quantile,
    gamma2_from_p,
    order_sample,
    ordered_from_arrays,
    run_sweep,
    sample_contaminated_censored,
)
from tailcens import simulation
from tailcens.estimators import _uncensored_fraction
from tailcens.simulation import _draw_arrays, _replicate_estimates, _replicate_rng

from oracles import draw_arrays_where


def burr_cdf(x, gamma1, eta):
    # 1 - (1 + x^(1/eta))^(-eta/gamma1), in logs so that x^(1/eta) may
    # exceed the float range
    return -np.expm1(-(eta / gamma1) * np.logaddexp(0.0, np.log(x) / eta))


def frechet_cdf(x, gamma2):
    return np.exp(-x ** (-1.0 / gamma2))


def test_burr_quantile_hand_values():
    assert burr_quantile(0.0, 0.3, 0.25) == 0.0
    assert burr_quantile(0.5, 0.3, 0.25) == pytest.approx((2 ** 1.2 - 1) ** 0.25)
    assert burr_cdf(burr_quantile(0.5, 0.3, 0.25), 0.3, 0.25) == pytest.approx(0.5)
    assert burr_quantile(1 - 1e-12, 0.3, 0.25) > 1e2
    with pytest.raises(ValueError):
        burr_quantile(1.0, 0.3, 0.25)
    with pytest.raises(ValueError):
        burr_quantile(-0.1, 0.3, 0.25)


def test_frechet_quantile_hand_values():
    assert frechet_quantile(np.exp(-1.0), 0.2) == pytest.approx(1.0)
    assert frechet_quantile(0.5, 0.2) == pytest.approx(np.log(2) ** -0.2)
    with pytest.raises(ValueError):
        frechet_quantile(0.0, 0.2)
    with pytest.raises(ValueError):
        frechet_quantile(1.0, 0.2)


def test_frechet_quantile_overflow_is_inf_without_warning():
    # for gamma2 = 100, (-log u)^(-gamma2) exceeds the float range as u -> 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frechet_quantile(1 - 1e-9, 100.0) == np.inf
        values = frechet_quantile(np.array([0.5, 1 - 1e-9]), 100.0)
    assert values[0] == pytest.approx(np.log(2) ** -100.0)
    assert values[1] == np.inf


@given(st.floats(min_value=1e-6, max_value=1 - 1e-9),
       st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=200)
def test_burr_roundtrip(u, gamma1, eta):
    x = burr_quantile(u, gamma1, eta)
    assert burr_cdf(x, gamma1, eta) == pytest.approx(u, abs=1e-12, rel=1e-9)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-9),
       st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=200)
def test_frechet_roundtrip(u, gamma2):
    x = frechet_quantile(u, gamma2)
    assert frechet_cdf(x, gamma2) == pytest.approx(u, abs=1e-12, rel=1e-9)


def test_gamma2_from_p():
    assert gamma2_from_p(0.3, 0.4) == pytest.approx(0.2)
    assert gamma2_from_p(0.5, 0.5) == pytest.approx(0.5)
    assert gamma2_from_p(0.3, 0.7) == pytest.approx(0.7)
    g2 = gamma2_from_p(0.42, 0.61)
    assert g2 / (0.42 + g2) == pytest.approx(0.61)
    with pytest.raises(ValueError):
        gamma2_from_p(0.3, 1.0)


def test_sampler_deterministic():
    model = ModelParams(gamma1=0.3, gamma2=0.7)
    cont = ContaminationSpec(epsilon=0.15, theta1=0.6)
    a = sample_contaminated_censored(100, model, cont, seed=5)
    b = sample_contaminated_censored(100, model, cont, seed=5)
    assert list(zip(*a)) == list(zip(*b))
    c = sample_contaminated_censored(100, model, cont, seed=6)
    assert list(zip(*a)) != list(zip(*c))


def test_censoring_identity_latent():
    model = ModelParams(gamma1=0.3, gamma2=0.7)
    cont = ContaminationSpec(epsilon=0.15, theta1=0.6)
    x, c, z, d = _draw_arrays(500, model, cont, _replicate_rng(2, 0))
    public_z, public_d = sample_contaminated_censored(500, model, cont, seed=2)
    assert z.tobytes() == public_z.tobytes() and d.tobytes() == public_d.tobytes()
    np.testing.assert_allclose(z, np.minimum(x, c))
    np.testing.assert_array_equal(d == 1, x <= c)


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("n", [1, 1000, 65_537])
@pytest.mark.parametrize("epsilon", [0.0, 0.15, 0.4, 0.999999])
@pytest.mark.parametrize("theta1, eta", [(0.6, 0.25), (5.0, 0.05)])
def test_draw_arrays_is_byte_equal_to_the_where_formulation(seed, n, epsilon, theta1, eta):
    # (5.0, 0.05): (1 - u)^(-theta1/eta) overflows for u > 0.9992, so the
    # contaminant quantile takes its overflow branch at the larger n
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.7), eta=eta)
    cont = ContaminationSpec(epsilon=epsilon, theta1=theta1)
    got = _draw_arrays(n, model, cont, _replicate_rng(seed, 0))
    want = draw_arrays_where(n, model, cont, _replicate_rng(seed, 0))
    for name, a, b in zip(("x", "c", "z", "delta"), got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_uncontaminated_ks():
    model = ModelParams(gamma1=0.3, gamma2=100.0)  # effectively no censoring
    cont = ContaminationSpec(epsilon=0.0, theta1=0.6)
    x, _, _, _ = _draw_arrays(10_000, model, cont, _replicate_rng(9, 0))
    stat = kstest(x, lambda t: burr_cdf(t, 0.3, 0.25)).statistic
    assert stat < 0.05


def test_fully_contaminated_ks():
    model = ModelParams(gamma1=0.3, gamma2=100.0)
    cont = ContaminationSpec(epsilon=0.999999, theta1=0.6)
    x, _, _, _ = _draw_arrays(10_000, model, cont, _replicate_rng(9, 0))
    stat = kstest(x, lambda t: burr_cdf(t, 0.6, 0.25)).statistic
    assert stat < 0.05


def test_upper_uncensored_proportion_limit():
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.7))
    cont = ContaminationSpec(epsilon=0.0)
    props = []
    for seed in range(100):
        obs = sample_contaminated_censored(10_000, model, cont, seed=seed)
        props.append(_uncensored_fraction(order_sample(obs), 500))
    assert abs(np.mean(props) - 0.7) < 0.05


def make_spec(**overrides):
    defaults = dict(
        n=300, replicates=10,
        model=ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.7)),
        contamination=ContaminationSpec(epsilon=0.0, theta1=0.6),
        alphas=(0.0, 0.1), k_grid=(30, 60), seed=4)
    defaults.update(overrides)
    return SweepSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(n=5)
    with pytest.raises(ValueError):
        make_spec(replicates=0)
    with pytest.raises(ValueError):
        make_spec(k_grid=(300,))
    with pytest.raises(ValueError):
        make_spec(alphas=(-0.1,))


def test_sweep_single_replicate_identity():
    result = run_sweep(make_spec(replicates=1))
    for _, _, abs_bias, mse, failures in result.rows:
        assert failures == 0
        assert mse == pytest.approx(abs_bias ** 2, rel=1e-12)


def full_scan_estimates(spec, replicate):
    """Reference oracle: every (k, alpha) cell solved by the full grid scan."""
    _, _, z, delta = _draw_arrays(spec.n, spec.model, spec.contamination,
                                  _replicate_rng(spec.seed, replicate))
    sample = ordered_from_arrays(z, delta)
    out = np.full((len(spec.k_grid), len(spec.alphas)), np.nan)
    for ki, k in enumerate(spec.k_grid):
        window = MdpdWindow(sample, k)
        for ai, alpha in enumerate(spec.alphas):
            try:
                out[ki, ai] = window.estimate(alpha).gamma1_hat
            except EstimationError:
                pass
    return out


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("epsilon", [0.0, 0.4])
def test_replicate_estimates_byte_equal_full_scan(monkeypatch, seed, epsilon):
    # the sweep-eps40 configuration; replicates 100 (seed 1) and 1 and 162
    # (seed 7) hold the only eps = 0.4 cells whose local scan falls back
    spec = make_spec(n=1000, model=ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.55)),
                     contamination=ContaminationSpec(epsilon=epsilon, theta1=0.6),
                     alphas=(0.0, 0.1, 0.5, 1.0), k_grid=(50, 100, 150, 200, 250, 300),
                     seed=seed)
    outcomes = []
    local_root = MdpdWindow._local_root

    def counted(self, alpha, options):
        root = local_root(self, alpha, options)
        if alpha > 0:
            outcomes.append(root is None)
        return root

    monkeypatch.setattr(MdpdWindow, "_local_root", counted)
    for replicate in [*range(40), 100, 162]:
        assert (_replicate_estimates(spec, replicate).tobytes()
                == full_scan_estimates(spec, replicate).tobytes())
    # both paths ran; no cell of seed 0 at eps = 0.4 falls back
    assert not all(outcomes)
    assert any(outcomes) == ((seed, epsilon) != (0, 0.4))


def test_sweep_jensen():
    result = run_sweep(make_spec(replicates=30))
    for _, _, abs_bias, mse, _ in result.rows:
        assert mse >= abs_bias ** 2 - 1e-12


def test_sweep_deterministic_across_threads():
    spec = make_spec(replicates=12)
    serial = run_sweep(spec, n_jobs=1)
    parallel = run_sweep(spec, n_jobs=3)
    assert serial.rows == parallel.rows


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_sweep_pooled_uses_two_workers_and_matches_serial():
    spec = make_spec(replicates=9)
    serial = run_sweep(spec, n_jobs=1)
    pooled = run_sweep(spec, n_jobs=2)
    assert (serial.workers, pooled.workers) == (1, 2)
    assert pooled.rows == serial.rows


def test_sweep_pools_where_the_platform_cannot_fork(monkeypatch):
    # without fork the sweep still pools, by the default start method
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    spec = make_spec(replicates=4)
    pooled = run_sweep(spec, n_jobs=2)
    assert pooled.workers == 2
    assert pooled.rows == run_sweep(spec, n_jobs=1).rows


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the daemon is forked to inherit the serial rows")
def test_sweep_in_a_daemon_process_runs_inline(monkeypatch):
    # a daemon may not start children, so a pool there would raise
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    spec = make_spec(replicates=4)
    serial = run_sweep(spec, n_jobs=1)

    def sweep():
        result = run_sweep(spec, n_jobs=2)
        assert (result.workers, result.rows) == (1, serial.rows)

    child = multiprocessing.get_context("fork").Process(target=sweep, daemon=True)
    child.start()
    child.join()
    assert child.exitcode == 0


def test_sweep_workers_capped_and_validated():
    assert run_sweep(make_spec(replicates=1), n_jobs=4).workers == 1
    for n_jobs in (0, -1):
        with pytest.raises(ValueError, match="n_jobs"):
            run_sweep(make_spec(), n_jobs=n_jobs)


def test_sweep_desk_scale_bias():
    spec = make_spec(n=1000, replicates=200, alphas=(0.0,), k_grid=(100,))
    result = run_sweep(spec)
    (_, _, abs_bias, _, failures) = result.rows[0]
    assert failures == 0
    assert abs_bias < 0.1


def test_sweep_all_failed_cell_is_nan():
    # gamma2 tiny: censoring crushes everything, every top window is fully
    # censored and alpha>0 has no root
    model = ModelParams(gamma1=0.5, gamma2=1e-6)
    spec = make_spec(model=model, alphas=(0.5,), k_grid=(30,), replicates=5)
    result = run_sweep(spec)
    k, alpha, abs_bias, mse, failures = result.rows[0]
    assert failures == 5
    assert np.isnan(abs_bias) and np.isnan(mse)
