import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from tailcens import (
    ContaminationSpec,
    ModelParams,
    SweepSpec,
    burr_quantile,
    frechet_quantile,
    gamma2_from_p,
    order_sample,
    censored_proportion,
    run_sweep,
    sample_contaminated_censored,
)


def burr_cdf(x, gamma1, eta):
    return 1.0 - (1.0 + x ** (1.0 / eta)) ** (-eta / gamma1)


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
    assert [(o.z, o.delta) for o in a] == [(o.z, o.delta) for o in b]
    c = sample_contaminated_censored(100, model, cont, seed=6)
    assert [(o.z, o.delta) for o in a] != [(o.z, o.delta) for o in c]


def test_censoring_identity_latent():
    model = ModelParams(gamma1=0.3, gamma2=0.7)
    cont = ContaminationSpec(epsilon=0.15, theta1=0.6)
    obs, x, c = sample_contaminated_censored(500, model, cont, seed=2,
                                             return_latent=True)
    z = np.array([o.z for o in obs])
    d = np.array([o.delta for o in obs])
    np.testing.assert_allclose(z, np.minimum(x, c))
    np.testing.assert_array_equal(d == 1, x <= c)


def test_uncontaminated_ks():
    model = ModelParams(gamma1=0.3, gamma2=100.0)  # effectively no censoring
    cont = ContaminationSpec(epsilon=0.0, theta1=0.6)
    obs, x, _ = sample_contaminated_censored(10_000, model, cont, seed=9,
                                             return_latent=True)
    stat = kstest(x, lambda t: burr_cdf(t, 0.3, 0.25)).statistic
    assert stat < 0.05


def test_fully_contaminated_ks():
    model = ModelParams(gamma1=0.3, gamma2=100.0)
    cont = ContaminationSpec(epsilon=0.999999, theta1=0.6)
    obs, x, _ = sample_contaminated_censored(10_000, model, cont, seed=9,
                                             return_latent=True)
    stat = kstest(x, lambda t: burr_cdf(t, 0.6, 0.25)).statistic
    assert stat < 0.05


def test_upper_uncensored_proportion_limit():
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.7))
    cont = ContaminationSpec(epsilon=0.0)
    props = []
    for seed in range(100):
        obs = sample_contaminated_censored(10_000, model, cont, seed=seed)
        props.append(censored_proportion(order_sample(obs), 500))
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
