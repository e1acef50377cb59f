import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from tailcens import (
    ContaminationSpec,
    EstimationError,
    InvalidSampleError,
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
from tailcens import estimators, simulation
from tailcens.estimators import _uncensored_fraction
from tailcens.simulation import (_block_estimates, _draw_arrays, _replicate_range,
                                 _replicate_rng)

from oracles import draw_arrays_where


def burr_cdf(x, gamma1, eta):
    # 1 - (1 + x^(1/eta))^(-eta/gamma1), in logs so that x^(1/eta) may
    # exceed the float range
    return -np.expm1(-(eta / gamma1) * np.logaddexp(0.0, np.log(x) / eta))


def frechet_cdf(x, gamma2):
    return np.exp(-x ** (-1.0 / gamma2))


def draw_one(n, model, contamination, rng):
    """_draw_arrays of a block of one stream: (z, delta) as 1-d arrays."""
    z, delta = _draw_arrays(n, model, contamination, [rng])
    return z[0], delta[0]


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
    # the latent x and c come from the where formulation of the same stream,
    # which test_draw_arrays_is_byte_equal_to_the_where_formulation ties to
    # the library's draw
    x, c, _, _ = draw_arrays_where(500, model, cont, _replicate_rng(2, 0))
    z, d = draw_one(500, model, cont, _replicate_rng(2, 0))
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
    assert_block_equals_where(seed, n, epsilon, theta1, eta)


def assert_block_equals_where(seed, n, epsilon, theta1, eta):
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.7), eta=eta)
    cont = ContaminationSpec(epsilon=epsilon, theta1=theta1)
    # a block of three streams: each row is that stream's draw alone
    got = _draw_arrays(n, model, cont, [_replicate_rng(seed, r) for r in range(3)])
    for r in range(3):
        want = draw_arrays_where(n, model, cont, _replicate_rng(seed, r))[2:]
        for name, a, b in zip(("z", "delta"), got, want):
            assert a.shape == (3, n) and a.dtype == b.dtype, name
            assert a[r].tobytes() == b.tobytes(), (name, r)


@pytest.mark.parametrize("n", [simulation._DRAW_CHUNK, 3 * simulation._DRAW_CHUNK + 5])
@pytest.mark.parametrize("theta1, eta", [(0.6, 0.25), (5.0, 0.05)])
def test_draw_arrays_chunk_edges_are_byte_equal_to_the_where_formulation(n, theta1, eta):
    # one whole chunk, and three whole chunks and a short one
    assert_block_equals_where(5, n, 0.15, theta1, eta)


@pytest.mark.parametrize("epsilon", [0.0, 0.15, 0.4])
def test_sample_draw_peak_memory_per_row(epsilon):
    # the draw holds z, delta, the contamination mask and one chunk of
    # columns: 11.6 traced bytes per row at n = 10^6, against 27.0 when the
    # latent x and c were drawn whole and kept beside z
    n = 10**6
    model = ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.7))
    cont = ContaminationSpec(epsilon=epsilon, theta1=0.6)
    sample_contaminated_censored(n, model, cont, seed=0)  # first-use work is not the draw's
    tracemalloc.start()
    try:
        sample_contaminated_censored(n, model, cont, seed=0)
        per_row = tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()
    assert per_row <= 12, per_row


def test_uncontaminated_ks():
    # x is the latent lifetime, so censoring does not enter; gamma2 = 100
    # censors 3638 of these 10 000 draws
    model = ModelParams(gamma1=0.3, gamma2=100.0)
    cont = ContaminationSpec(epsilon=0.0, theta1=0.6)
    x = draw_arrays_where(10_000, model, cont, _replicate_rng(9, 0))[0]
    stat = kstest(x, lambda t: burr_cdf(t, 0.3, 0.25)).statistic
    assert stat < 0.05


def test_fully_contaminated_ks():
    model = ModelParams(gamma1=0.3, gamma2=100.0)
    cont = ContaminationSpec(epsilon=0.999999, theta1=0.6)
    x = draw_arrays_where(10_000, model, cont, _replicate_rng(9, 0))[0]
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
    with pytest.raises(ValueError, match="k_grid must not be empty"):
        make_spec(k_grid=())
    with pytest.raises(ValueError, match="alphas must not be empty"):
        make_spec(alphas=())


@pytest.mark.parametrize("make, message", [
    (lambda: ContaminationSpec(epsilon=0.5, theta1=np.nan), "theta1 must be positive and finite"),
    (lambda: ContaminationSpec(epsilon=0.5, theta1=np.inf), "theta1 must be positive and finite"),
    # a NaN alpha is neither 0 nor > 0, so no solve would write its column
    (lambda: make_spec(alphas=(0.0, np.nan)), "alpha=nan must be finite and >= 0"),
    (lambda: make_spec(alphas=(0.1, np.inf)), "alpha=inf must be finite and >= 0"),
], ids=["theta1-nan", "theta1-inf", "alphas-nan", "alphas-inf"])
def test_non_finite_spec_parameters_are_rejected(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_sweep_single_replicate_identity():
    result = run_sweep(make_spec(replicates=1))
    for _, _, abs_bias, mse, failures in result.rows:
        assert failures == 0
        assert mse == pytest.approx(abs_bias ** 2, rel=1e-12)


def full_scan_estimates(spec, replicate):
    """Reference oracle: every (k, alpha) cell solved by the full grid scan."""
    z, delta = draw_one(spec.n, spec.model, spec.contamination,
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


SWEEP_EPS40 = dict(n=1000, model=ModelParams(gamma1=0.3, gamma2=gamma2_from_p(0.3, 0.55)),
                   contamination=ContaminationSpec(epsilon=0.4, theta1=0.6),
                   alphas=(0.0, 0.1, 0.5, 1.0), k_grid=(50, 100, 150, 200, 250, 300))


def count_full_grid_cells(monkeypatch):
    """A list that gets the number of cells of each full-grid stage of _local_roots."""
    counts = []
    nearest_roots = estimators._nearest_roots

    def counted(residual, cells, points, values, reference, reach):
        if points.shape[1] == estimators.GRID_POINTS:
            counts.append(cells.size)
        return nearest_roots(residual, cells, points, values, reference, reach)

    monkeypatch.setattr(estimators, "_nearest_roots", counted)
    return counts


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("epsilon", [0.0, 0.4])
def test_replicate_estimates_byte_equal_full_scan(monkeypatch, seed, epsilon):
    # the sweep-eps40 configuration; replicates 100 (seed 1) and 1 and 162
    # (seed 7) hold the only eps = 0.4 cells that reach the full grid.
    # One block of all the replicates, each replicate on its own and the
    # full scan give the same bytes
    spec = make_spec(**{**SWEEP_EPS40, "seed": seed,
                        "contamination": ContaminationSpec(epsilon=epsilon, theta1=0.6)})
    calls = []
    local_roots = estimators._local_roots

    def counted(residual, reference, batch):
        calls.append(reference.size)
        return local_roots(residual, reference, batch)

    monkeypatch.setattr(estimators, "_local_roots", counted)
    full_grid = count_full_grid_cells(monkeypatch)
    replicates = [*range(40), 100, 162]
    block = _block_estimates(spec, replicates)
    reached = sum(full_grid)
    # one local solve for every cell at alpha > 0 of the block, all k together
    assert calls == [len(replicates) * 6 * 3]
    assert block.tobytes() == np.concatenate([_block_estimates(spec, [r])
                                              for r in replicates]).tobytes()
    assert calls[1:] == [6 * 3] * len(replicates)
    assert block.tobytes() == np.stack([full_scan_estimates(spec, r)
                                        for r in replicates]).tobytes()
    # the same cells reach the full grid in the block and alone; some cells
    # do, but not all, and none of seed 0 at eps = 0.4
    assert sum(full_grid) == 2 * reached
    assert reached < calls[0]
    assert (reached > 0) == ((seed, epsilon) != (0, 0.4))


def test_full_grid_cells_of_the_readme_sweep_at_eps_0(monkeypatch):
    # 171 of the 3600 cells at alpha > 0 leave the local scan unproven and
    # scan the whole grid; 0 do at eps = 0.4 (see above)
    spec = make_spec(**{**SWEEP_EPS40, "seed": 0, "replicates": 200,
                        "contamination": ContaminationSpec(epsilon=0.0, theta1=0.6)})
    full_grid = count_full_grid_cells(monkeypatch)
    _replicate_range(spec, 0, spec.replicates)
    assert sum(full_grid) == 171


def test_local_scans_ask_for_at_most_two_thirds_of_the_wide_scans_points(monkeypatch):
    # scanning all 16 rows of every cell asked the residual at 75 259 points
    # for this spec (57 600 of them in the scans); narrow rows first ask 44 499,
    # and no cell reaches the full grid.
    # The count depends only on the data, so it guards the saving
    spec = make_spec(**SWEEP_EPS40, seed=0, replicates=200)
    points = []
    local_roots = estimators._local_roots

    def counted(residual, reference, batch):
        def recorded(cells, g):
            points.append(g.size)
            return residual(cells, g)
        return local_roots(recorded, reference, batch)

    monkeypatch.setattr(estimators, "_local_roots", counted)
    _replicate_range(spec, 0, spec.replicates)
    assert sum(points) <= 75_259 * 2 // 3


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_block_rejects_a_time_that_is_not_positive_and_finite(monkeypatch, bad):
    # the draw checks every time it folds: replicate 1's lifetime 7 is bad
    # and its censoring time inf, so that the bad value is its observed time
    burr, frechet = simulation.burr_quantile, simulation.frechet_quantile

    def at_one_entry(quantile, value):
        def patched(*args):
            out = quantile(*args)
            if out.ndim == 2:  # not the contaminants' draw, which is 1-d
                out[1, 7] = value
            return out
        return patched

    monkeypatch.setattr(simulation, "burr_quantile", at_one_entry(burr, bad))
    monkeypatch.setattr(simulation, "frechet_quantile", at_one_entry(frechet, np.inf))
    with pytest.raises(InvalidSampleError, match="a drawn time is not positive and finite "
                                                 "at gamma1=0.3, eta=0.25, theta1=0.6"):
        _block_estimates(make_spec(), range(3))


def test_block_orders_tied_times_as_ordered_from_arrays(monkeypatch):
    # every time appears twice, once censored and once not, so the order of
    # equal times decides each window's indicators
    spec = make_spec(alphas=(0.0, 0.5), k_grid=(30, 60, 61))
    draw = simulation._draw_arrays

    def tied(*args):
        z, delta = draw(*args)
        z[:, 1::2] = z[:, ::2]
        delta[:, 1::2] = 1 - delta[:, ::2]
        return z, delta

    monkeypatch.setattr(simulation, "_draw_arrays", tied)
    block = _block_estimates(spec, range(4))
    for r in range(4):
        z, delta = draw_one(spec.n, spec.model, spec.contamination,
                            _replicate_rng(spec.seed, r))
        z[1::2], delta[1::2] = z[::2], 1 - delta[::2]
        sample = ordered_from_arrays(z, delta)
        for ki, k in enumerate(spec.k_grid):
            for ai, alpha in enumerate(spec.alphas):
                try:
                    want = MdpdWindow(sample, k).estimate(alpha).gamma1_hat
                except EstimationError:
                    want = np.nan
                assert np.array(want).tobytes() == block[r, ki, ai].tobytes(), (r, k, alpha)


def record_block_sizes(monkeypatch, solve=_block_estimates):
    """A list that gets the number of replicates of each block that _replicate_range solves."""
    sizes = []

    def recorded(spec, replicates):
        sizes.append(len(replicates))
        return solve(spec, replicates)

    monkeypatch.setattr(simulation, "_block_estimates", recorded)
    return sizes


def test_replicate_range_splits_into_blocks_under_the_byte_budget(monkeypatch):
    spec = make_spec(**SWEEP_EPS40, replicates=80)
    sizes = record_block_sizes(monkeypatch)
    whole = _replicate_range(spec, 3, 80)
    # 3 cells at alpha > 0 with 6 narrow rows of k <= 300, the 301 largest
    # observations, three draw arrays of n = 1000 and two window arrays of
    # each k, whose sum is 1050: 8 * (300 * 19 + 3000 + 2100) = 86 400
    # bytes a replicate, so a block holds 36 and 77 replicates take 3 blocks
    # of equal size
    assert sizes == [25, 26, 26]
    monkeypatch.setattr(simulation, "BLOCK_BYTES", 4 * 86_400 - 1)
    sizes.clear()
    assert _replicate_range(spec, 3, 30).tobytes() == whole[:27].tobytes()
    assert sizes == [3] * 9
    # 10 replicates in blocks of 3 at most: 4 blocks, not 3 + 3 + 3 + 1
    sizes.clear()
    assert _replicate_range(spec, 3, 13).tobytes() == whole[:10].tobytes()
    assert sizes == [2, 3, 2, 3]
    monkeypatch.setattr(simulation, "BLOCK_BYTES", 1)
    sizes.clear()
    assert _replicate_range(spec, 3, 6).tobytes() == whole[:3].tobytes()
    assert sizes == [1, 1, 1]


def test_a_worker_range_of_the_readme_sweep_is_three_blocks(monkeypatch):
    # each of the two ranges of a pooled README sweep is 100 replicates, and
    # a block holds 36 of them (see above); sized by 16 rows a cell it held
    # 19, and the range took 6 blocks
    spec = make_spec(**SWEEP_EPS40, replicates=200)
    sizes = record_block_sizes(
        monkeypatch, lambda spec, replicates: np.empty((len(replicates), 6, 4)))
    assert _replicate_range(spec, 100, 200).shape == (100, 6, 4)
    assert sizes == [33, 33, 34]


@pytest.mark.parametrize("epsilon, censored", [(0.0, False), (0.4, False), (0.4, True)],
                         ids=["eps 0", "eps 0.4", "every window censored"])
def test_grouped_wider_scans_are_byte_equal_to_one_group(monkeypatch, epsilon, censored):
    # seed 7's replicates 1 and 162 hold the eps = 0.4 cells that reach the
    # full grid (see above); at a batch of b cells the 16-row and full-grid
    # scans ask for groups of max(1, 6 * b // 10) cells
    spec = make_spec(**{**SWEEP_EPS40, "seed": 7,
                        "contamination": ContaminationSpec(epsilon=epsilon, theta1=0.6)})
    if censored:
        censor_every_draw(monkeypatch)
    replicates = [0, 1, 2, 162]
    as_solved = _block_estimates(spec, replicates).tobytes()
    full_grid = count_full_grid_cells(monkeypatch)
    local_roots = estimators._local_roots
    scans = []

    def at_batch(batch):
        def solve(residual, reference, _):
            def recorded(cells, g):
                if g.shape[1] == estimators.LOCAL_ROWS - estimators.NARROW_ROWS:
                    scans[-1] += 1
                return residual(cells, g)
            return local_roots(recorded, reference, batch)
        return solve

    for batch in (1, 5, 10**6):  # groups of 1 and 3 cells, and one group
        scans.append(0)
        monkeypatch.setattr(estimators, "_local_roots", at_batch(batch))
        assert _block_estimates(spec, replicates).tobytes() == as_solved, batch
    # several cells reach the full grid, so a batch of 1 splits both wider
    # stages into several groups, and one group makes the fewest calls
    assert full_grid[0] == full_grid[1] == full_grid[2] > 1
    assert scans[0] > scans[1] > scans[2]


def traced_peak_mib(spec):
    """tracemalloc peak of a serial _replicate_range over every replicate of spec."""
    _replicate_range(spec, 0, 1)  # first-use imports and caches are not the sweep's
    tracemalloc.start()
    try:
        _replicate_range(spec, 0, spec.replicates)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_replicate_range_memory_is_bounded():
    # the arrays a block is sized by take at most BLOCK_BYTES = 3 MiB, which
    # counts 6 narrow rows a cell; the sweep-eps40 spec peaks at 2.44 MiB in
    # blocks of 33 and 34 replicates (1.63 MiB in blocks of 19, when 16 rows
    # a cell were counted)
    assert traced_peak_mib(make_spec(**SWEEP_EPS40, replicates=200)) <= 4.0
    # at k = 5000 a block is two replicates; it peaks at 1.83 MiB (1.13 MiB
    # at one replicate a block), against 1.42 MiB for the cell-by-cell solve
    # that the block solve replaced
    big = make_spec(**{**SWEEP_EPS40, "n": 20_000, "k_grid": (1000, 3000, 5000)},
                    replicates=4)
    assert traced_peak_mib(big) <= 2 * 1.42


def censor_every_draw(monkeypatch):
    """Censor every drawn observation, so that every window's weights are 0."""
    draw = simulation._draw_arrays

    def censored(*args):
        z, delta = draw(*args)
        delta[:] = 0
        return z, delta

    monkeypatch.setattr(simulation, "_draw_arrays", censored)


def test_replicate_range_memory_is_bounded_when_every_cell_scans_the_full_grid(monkeypatch):
    # with every observation censored, every window's weights are 0, so no
    # cell has a root and each scans the whole grid, ten rows at a time, in
    # groups of cells: the sweep-eps40 spec then peaks at 3.72 MiB, within
    # the bound above (2.96 MiB in ungrouped blocks of 19, 2.65 MiB when
    # such cells were solved one by one)
    censor_every_draw(monkeypatch)
    full_grid = count_full_grid_cells(monkeypatch)
    spec = make_spec(**SWEEP_EPS40, replicates=200)
    assert traced_peak_mib(spec) <= 4.0
    assert sum(full_grid) == (1 + spec.replicates) * 6 * 3


def test_sweep_jensen():
    result = run_sweep(make_spec(replicates=30))
    for _, _, abs_bias, mse, _ in result.rows:
        assert mse >= abs_bias ** 2 - 1e-12


def test_sweep_deterministic_across_threads(monkeypatch):
    # three processes, however many CPUs this machine has
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 3)
    spec = make_spec(replicates=12)
    serial = run_sweep(spec, n_jobs=1)
    parallel = run_sweep(spec, n_jobs=3)
    assert parallel.workers == 3
    assert serial.rows == parallel.rows
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_sweep_pooled_uses_two_workers_and_matches_serial():
    spec = make_spec(replicates=9)
    serial = run_sweep(spec, n_jobs=1)
    pooled = run_sweep(spec, n_jobs=2)
    assert (serial.workers, pooled.workers) == (1, 2)
    assert pooled.rows == serial.rows


WARM_WORKER = """
import sys
import numpy as np
from tailcens import simulation

def numpy_random_imported(spec, start, stop):
    return np.full(stop - start, "numpy.random" in sys.modules)

simulation._replicate_range = numpy_random_imported
assert "numpy.random" not in sys.modules
print(simulation._replicate_ranges(None, [0, 1, 2])[1])
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="a spawned worker imports its modules afresh")
def test_forked_workers_start_with_numpy_random_imported():
    # the caller imports it before the workers start, so a forked worker
    # does not import it again on every sweep
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(simulation.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", WARM_WORKER], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, "True"), done.stderr


def test_sweep_pools_where_the_platform_cannot_fork(monkeypatch):
    # without fork the sweep still pools, by spawning its worker
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    get_context, methods = multiprocessing.get_context, []

    def recorded(method=None):
        methods.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", recorded)
    spec = make_spec(replicates=4)
    pooled = run_sweep(spec, n_jobs=2)
    assert methods == ["spawn"]
    assert pooled.workers == 2
    assert pooled.rows == run_sweep(spec, n_jobs=1).rows
    assert multiprocessing.active_children() == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the workers are forked to inherit the patched range")
def test_a_failing_caller_range_terminates_its_workers(monkeypatch):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 3)
    caller, started = os.getpid(), []

    def failing_range(spec, start, stop):
        if os.getpid() == caller:
            raise RuntimeError("the caller's range failed")
        time.sleep(60)  # a worker still solving its range

    start = multiprocessing.process.BaseProcess.start

    def recorded_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(simulation, "_replicate_range", failing_range)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recorded_start)
    with pytest.raises(RuntimeError, match="the caller's range failed"):
        run_sweep(make_spec(replicates=6), n_jobs=3)
    assert [process.exitcode for process in started] == [-signal.SIGTERM] * 2
    assert multiprocessing.active_children() == []


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
        assert multiprocessing.active_children() == []

    child = multiprocessing.get_context("fork").Process(target=sweep, daemon=True)
    child.start()
    child.join()
    assert child.exitcode == 0


def test_sweep_in_a_process_marked_daemon_starts_no_worker(monkeypatch):
    # the same check in this process: a worker started from a daemon
    # would fail its start with "daemonic processes are not allowed to have children"
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    spec = make_spec(replicates=4)
    serial = run_sweep(spec, n_jobs=1)
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    result = run_sweep(spec, n_jobs=2)
    assert (result.workers, result.rows) == (1, serial.rows)
    assert multiprocessing.active_children() == []


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
