import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freematch_lab.synthdata import _NORMALS_CHUNK as CHUNK, MixtureSpec, mixture_blocks, sample_mixture
from freematch_lab.theory import (
    MC_BLOCK,
    analytic_dist,
    assign_pseudo_batch,
    confidence,
    mc_dist,
    sweep,
)


SPEC = MixtureSpec(mu1=0.0, mu2=2.0, sigma1=1.0, sigma2=1.0, beta=2.0, tau=0.8)


# -- confidence ---------------------------------------------------------------


def test_confidence_midpoint_is_half():
    assert confidence(SPEC.midpoint, SPEC) == pytest.approx(0.5, abs=1e-15)


def test_confidence_saturates_with_sharpness():
    spec = MixtureSpec(mu1=0.0, mu2=2.0, beta=200.0, tau=0.8)
    assert confidence(1.2, spec) > 1 - 1e-15


def test_confidence_analytic_value():
    spec = MixtureSpec(mu1=0.0, mu2=2.0, beta=1.0, tau=0.8)
    assert confidence(2.0, spec) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_confidence_monotone():
    xs = np.linspace(-5, 5, 100)
    s = confidence(xs, SPEC)
    assert (np.diff(s) > 0).all()


# -- assign_pseudo_batch ----------------------------------------------------------


def test_midpoint_is_masked_for_any_tau():
    for tau in (0.51, 0.7, 0.99):
        spec = MixtureSpec(mu1=0.0, mu2=2.0, tau=tau)
        assert assign_pseudo_batch(np.array([spec.midpoint]), spec).tolist() == [0]


def test_band_vanishes_as_tau_approaches_half():
    spec = MixtureSpec(mu1=0.0, mu2=2.0, tau=0.5 + 1e-12)
    assert assign_pseudo_batch(np.array([spec.midpoint + 1e-9]), spec).tolist() == [1]
    assert assign_pseudo_batch(np.array([spec.midpoint - 1e-9]), spec).tolist() == [-1]


def test_band_and_confidence_formulations_agree():
    # dual-formulation oracle: compare with the direct s(x) vs tau test
    rng = np.random.default_rng(0)
    spec = MixtureSpec(mu1=-1.0, mu2=3.0, sigma1=0.7, sigma2=1.5, beta=1.3, tau=0.85)
    x = rng.uniform(-8, 10, size=100_000)
    band = assign_pseudo_batch(x, spec)
    s = confidence(x, spec)
    direct = np.zeros_like(band)
    direct[s > spec.tau] = 1
    direct[s < 1 - spec.tau] = -1
    assert np.array_equal(band, direct)


# -- analytic_dist -----------------------------------------------------------------


def test_equal_sigmas_give_exact_symmetry():
    d = analytic_dist(SPEC)
    assert d.p_pos == d.p_neg


def test_analytic_against_mc_oracle_case1():
    d = analytic_dist(SPEC)
    assert d.p_pos == pytest.approx(0.3329, abs=5e-4)
    mc = mc_dist(SPEC, 10**6, seed=1)
    assert abs(mc.dist.p_pos - d.p_pos) <= 4 * mc.se_pos
    assert abs(mc.dist.p_mask - d.p_mask) <= 4 * mc.se_mask


def test_analytic_against_mc_oracle_case2():
    spec = MixtureSpec(mu1=-1.0, mu2=1.0, sigma1=1.0, sigma2=1.0, beta=1.0, tau=0.95)
    d = analytic_dist(spec)
    assert d.p_mask == pytest.approx(0.974, abs=5e-4)
    mc = mc_dist(spec, 10**6, seed=2)
    assert abs(mc.dist.p_mask - d.p_mask) <= 4 * mc.se_mask


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=0.1, max_value=6),
    st.floats(min_value=0.1, max_value=3),
    st.floats(min_value=0.1, max_value=3),
    st.floats(min_value=0.1, max_value=5),
    st.floats(min_value=0.51, max_value=0.99),
)
def test_analytic_dist_sums_to_one(mu1, delta, s1, s2, beta, tau):
    spec = MixtureSpec(mu1=mu1, mu2=mu1 + delta, sigma1=s1, sigma2=s2, beta=beta, tau=tau)
    d = analytic_dist(spec)
    assert abs(d.p_pos + d.p_neg + d.p_mask - 1.0) <= 1e-12
    assert min(d.p_pos, d.p_neg, d.p_mask) >= -1e-12


# -- mc_dist ---------------------------------------------------------------------


def test_mc_reproducible_for_fixed_seed():
    a = mc_dist(SPEC, 10_000, seed=3)
    b = mc_dist(SPEC, 10_000, seed=3)
    assert a == b


def test_mc_mask_vanishes_near_half_tau():
    spec = MixtureSpec(mu1=0.0, mu2=2.0, tau=0.5 + 1e-9)
    mc = mc_dist(spec, 10_000, seed=4)
    assert mc.dist.p_mask <= 1e-3


def test_mc_n_not_a_multiple_of_the_block_sums_to_n():
    n = 2 * MC_BLOCK + 10_001
    mc = mc_dist(SPEC, n, seed=5)
    assert mc.n == n
    total = sum(round(p * n) for p in (mc.dist.p_pos, mc.dist.p_neg, mc.dist.p_mask))
    assert total == n


def test_mc_memory_does_not_grow_with_n():
    """The oracle streams its draw and forms no x per block: at n = 4e6 its
    traced peak is about 2.5 MiB as a process's first call, where forming x
    in blocks of 2^16 traced 4.8 MiB and a whole-array draw of 1e6 samples
    traces about 39 MiB."""
    tracemalloc.start()
    try:
        mc_dist(SPEC, 4 * 10**6, seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# -- the streamed draw is the one-generator draw, bit for bit ---------------------

MIXED = MixtureSpec(mu1=-1.0, mu2=1.0, sigma1=0.5, sigma2=2.0, beta=2.0, tau=0.8)
BLOCK_EDGE_SIZES = [
    1, 2, 3, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 7,
    # where the helper thread's hand-offs of CHUNK normals fall
    CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + MC_BLOCK + 1, 3 * CHUNK + 7,
]
DRAW_SEEDS = [0, 1, 12345, np.random.SeedSequence(1000).spawn(1)[0]]


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_mixture_blocks_concatenate_to_the_one_generator_draw(n):
    for seed in DRAW_SEEDS:
        # oracle: labels then normals, all from one generator
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=n) * 2 - 1
        z = rng.standard_normal(n)
        x = np.where(y == 1, MIXED.mu2 + MIXED.sigma2 * z, MIXED.mu1 + MIXED.sigma1 * z)

        blocks = list(mixture_blocks(n, seed, MC_BLOCK))
        assert [len(by) for by, _ in blocks] == [min(MC_BLOCK, n - s) for s in range(0, n, MC_BLOCK)]
        by = np.concatenate([b[0] for b in blocks])
        bz = np.concatenate([b[1] for b in blocks])
        assert by.dtype == y.dtype and bz.dtype == z.dtype
        assert np.array_equal(by, y) and np.array_equal(bz, z)
        sx, sy = sample_mixture(MIXED, n, seed)
        assert np.array_equal(sx, x) and np.array_equal(sy, y)


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_mc_counts_equal_labels_of_the_full_draw(n):
    for seed in (0, 7, 31):
        mc = mc_dist(MIXED, n, seed=seed)
        x, _ = sample_mixture(MIXED, n, np.random.SeedSequence(seed).spawn(1)[0])
        yp = assign_pseudo_batch(x, MIXED)
        assert mc.n == n
        assert mc.dist.p_pos == int((yp == 1).sum()) / n
        assert mc.dist.p_neg == int((yp == -1).sum()) / n
        assert mc.dist.p_mask == int((yp == 0).sum()) / n


# -- the helper thread that draws the normals ------------------------------------


def test_closing_mixture_blocks_early_stops_its_helper_thread():
    before = threading.active_count()
    for taken in (1, 2):  # both blocks lie inside the first hand-off of normals
        blocks = mixture_blocks(3 * CHUNK, 0, MC_BLOCK)
        for _ in range(taken):
            next(blocks)
        assert threading.active_count() == before + 1  # drawing the second chunk's normals
        blocks.close()
        assert threading.active_count() == before
    sample_mixture(MIXED, 1000, 0)
    assert threading.active_count() == before


def test_mc_dist_from_two_threads_at_once_matches_serial_calls():
    calls = [(MIXED, 5 * MC_BLOCK + 3, 11), (SPEC, 4 * MC_BLOCK, 12)]
    serial = [mc_dist(*call) for call in calls]
    barrier = threading.Barrier(len(calls))

    def at_once(call):
        barrier.wait()
        return mc_dist(*call)

    with ThreadPoolExecutor(max_workers=len(calls)) as pool:
        assert list(pool.map(at_once, calls)) == serial


# -- sweep -----------------------------------------------------------------------


def test_sweep_tau_utilization_verdict():
    res = sweep(SPEC, "tau", np.arange(0.6, 0.96, 0.05))
    assert res.verdicts["p_mask_strictly_increasing_in_tau"]


def test_sweep_delta_verdict():
    res = sweep(SPEC, "delta", [0.5, 1.0, 2.0, 4.0])
    assert res.verdicts["p_mask_strictly_decreasing_in_delta"]
    masks = [r.dist.p_mask for r in res.rows]
    assert all(b < a for a, b in zip(masks, masks[1:]))


def test_sweep_imbalance_verdict_with_unequal_sigmas():
    base = MixtureSpec(mu1=-2.0, mu2=2.0, sigma1=0.5, sigma2=2.0, beta=2.0, tau=0.8)
    res = sweep(base, "tau", [0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9])
    assert res.verdicts["imbalance_non_decreasing_in_tau"]


def test_sweep_beta_verdict():
    res = sweep(SPEC, "beta", [0.5, 1.0, 2.0, 4.0])
    assert res.verdicts["p_mask_strictly_decreasing_in_beta"]


def test_sweep_rejects_non_monotone_grid():
    with pytest.raises(ValueError):
        sweep(SPEC, "tau", [0.6, 0.8, 0.7])


def test_sweep_attaches_mc_columns():
    res = sweep(SPEC, "tau", [0.6, 0.8], mc_samples=20_000, seed=9)
    for row in res.rows:
        assert row.mc is not None
        assert abs(row.mc.dist.p_mask - row.dist.p_mask) <= 5 * max(row.mc.se_mask, 1e-4)
