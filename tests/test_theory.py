import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freematch_lab import theory
from freematch_lab.synthdata import gen_gaussian_clusters, streams
from freematch_lab.theory import (
    MC_BLOCK,
    McResult,
    MixtureSpec,
    PseudoLabelDist,
    analytic_dist,
    assign_pseudo_batch,
    mc_agreement_z,
    mc_dist,
    sample_mixture,
    sweep,
    with_mc,
)


SPEC = MixtureSpec(mu1=0.0, mu2=2.0, sigma1=1.0, sigma2=1.0, beta=2.0, tau=0.8)


# -- spec and reference draw ---------------------------------------------------


def test_mixture_moments_within_mc_bounds():
    spec = MixtureSpec(mu1=-1.0, mu2=3.0, sigma1=1.0, sigma2=2.0, beta=1.0, tau=0.9)
    x, y = sample_mixture(spec, 10**6, seed=5)
    pos = x[y == 1]
    assert abs(pos.mean() - spec.mu2) <= 4 * spec.sigma2 / 1000
    assert abs((y == 1).mean() - 0.5) <= 0.002


def test_mixture_sigma_near_zero_collapses():
    spec = MixtureSpec(mu1=0.0, mu2=2.0, sigma1=1e-12, sigma2=1e-12, beta=1.0, tau=0.9)
    x, y = sample_mixture(spec, 1000, seed=6)
    assert np.allclose(x[y == 1], 2.0, atol=1e-9)
    assert np.allclose(x[y == -1], 0.0, atol=1e-9)


def test_mixture_rejects_unordered_means():
    """Classes are taken as given: a reversed pair is an error naming both
    means, never a silent relabelling of the classes."""
    with pytest.raises(ValueError) as exc_info:
        MixtureSpec(mu1=4.0, mu2=1.0, sigma1=0.5, sigma2=2.0)
    assert str(exc_info.value) == "mu1 must be below mu2, got mu1=4.0, mu2=1.0"


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(mu1=0.0, mu2=1.0, tau=0.5)
    with pytest.raises(ValueError):
        MixtureSpec(mu1=0.0, mu2=1.0, sigma1=-1.0)
    with pytest.raises(ValueError):
        MixtureSpec(mu1=0.0, mu2=0.0)
    with pytest.raises(ValueError):
        MixtureSpec(mu1=0.0, mu2=1.0, beta=0.0)


# -- confidence ---------------------------------------------------------------


def confidence(x, spec: MixtureSpec):
    """Sigmoid confidence s(x) centered on the optimal decision boundary: the
    direct form of the pseudo-label rule that the band edges restate."""
    return 1.0 / (1.0 + np.exp(-spec.beta * (np.asarray(x, dtype=np.float64) - spec.midpoint)))


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


def test_two_clusters_are_the_theorem_mixture_in_their_first_coordinate():
    """The bridge from the closed form to the training data, with no training:
    two unit clusters at (-1, 0) and (1, 0) are the mixture with means -1 and
    1 in x1. Its Bayes rule sign(x1) errs at Phi(-1), and thresholding its
    Bayes posterior sigmoid(2 x1) at tau masks analytic_dist's p_mask at beta
    2. Each is checked to 3 binomial standard errors on one draw of 200,000
    points per class (the seed was fixed before the first run)."""
    data = gen_gaussian_clusters(C=2, n_per_class=200_000, means=[[-1, 0], [1, 0]], sigma=1, seed=15)
    x1, labels = data.unlabeled.points[:, 0], data.unlabeled.labels
    n = len(labels)

    def within_3_se(share, p):
        return abs(share - p) <= 3 * math.sqrt(p * (1 - p) / n)

    bayes_error = 0.5 * math.erfc(1 / math.sqrt(2))  # Phi(-1)
    assert bayes_error == pytest.approx(0.158655, abs=5e-7)
    assert within_3_se(np.mean((x1 > 0) != (labels == 1)), bayes_error)
    for tau in (0.8, 0.95):
        spec = MixtureSpec(-1, 1, beta=2, tau=tau)
        s = confidence(x1, spec)  # sigmoid(2 x1)
        assert within_3_se(np.mean((s > 1 - tau) & (s < tau)), analytic_dist(spec).p_mask), tau


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


def test_mc_agreement_z_is_finite_when_an_entry_has_no_mass():
    """Means 100 sigmas apart leave no mass in the band: the analytic and the
    empirical p_mask are both 0 with a stderr of 0, so only the 1/n floor keeps
    the scale above 0, and the entry adds nothing to the worst z."""
    d = analytic_dist(MixtureSpec(mu1=-50.0, mu2=50.0, tau=0.6))
    assert d.p_mask == 0.0
    n = 1000
    se = math.sqrt(0.51 * 0.49 / n)
    mc = McResult(PseudoLabelDist(0.51, 0.49, 0.0), se, se, 0.0, n)
    assert mc_agreement_z(d, mc) == pytest.approx(0.01 / math.sqrt(0.25 / n), rel=1e-9)


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
    """The oracle draws in blocks and keeps no sample's x: at n = 4e6 its
    traced peak is about 1 MiB as a process's first call, where the streamed
    one-generator draw traced 2.5 MiB and a whole-array draw of 1e6 samples
    traces about 39 MiB."""
    tracemalloc.start()
    try:
        mc_dist(SPEC, 4 * 10**6, seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"


MIXED = MixtureSpec(mu1=-1.0, mu2=1.0, sigma1=0.5, sigma2=2.0, beta=2.0, tau=0.8)


def test_mc_draw_is_calibrated_against_the_closed_form():
    """Over 400 seeds at n = 2000, each entry's (mc - analytic) / sqrt(a(1 - a)/n)
    has mean about 0 and variance about 1. The class count must be a binomial
    draw: a fixed n // 2 split reads a variance of about 0.6 on p_pos, since
    MIXED's components differ."""
    n = 2000
    d = analytic_dist(MIXED)
    a = np.array([d.p_pos, d.p_neg, d.p_mask])
    draws = [mc_dist(MIXED, n, seed).dist for seed in range(400)]
    mc = np.array([[m.p_pos, m.p_neg, m.p_mask] for m in draws])
    z = (mc - a) / np.sqrt(a * (1.0 - a) / n)
    assert np.all(np.abs(z.mean(axis=0)) <= 0.2), z.mean(axis=0)
    assert np.all((0.75 <= z.var(axis=0)) & (z.var(axis=0) <= 1.3)), z.var(axis=0)


# -- the draws, bit for bit ------------------------------------------------------

# sizes around 2^13 and 2^16, spelled out so that the test ids stay fixed
BLOCK_EDGE_SIZES = [1, 2, 3, 8191, 8192, 8193, 24583, 65535, 65536, 65537, 139265, 196615]
DRAW_SEEDS = [0, 1, 12345, np.random.SeedSequence(1000).spawn(1)[0]]


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_mixture_blocks_concatenate_to_the_one_generator_draw(n):
    """sample_mixture is n labels and then n normals from one generator."""
    for seed in DRAW_SEEDS:
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=n) * 2 - 1
        z = rng.standard_normal(n)
        x = np.where(y == 1, MIXED.mu2 + MIXED.sigma2 * z, MIXED.mu1 + MIXED.sigma1 * z)

        sx, sy = sample_mixture(MIXED, n, seed)
        assert sx.dtype == x.dtype and sy.dtype == y.dtype
        assert np.array_equal(sx, x) and np.array_equal(sy, y)


def _one_call_counts(rng: np.random.Generator, m: int, mu: float, sigma: float, lo: float, hi: float):
    """A component's (> hi, < lo) counts from one float32 call of m normals,
    upcast to float64 and compared with the float64 standardized edges."""
    z = rng.standard_normal(m, dtype=np.float32).astype(np.float64)
    return int((z > (hi - mu) / sigma).sum()), int((z < (lo - mu) / sigma).sum())


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_mc_counts_equal_labels_of_the_full_draw(n):
    """mc_dist's counts are those of each component's normals drawn in one
    call from its own SFC64 child."""
    lo, hi = theory._band_edges(MIXED)
    for seed in (0, 7, 31):
        mc = mc_dist(MIXED, n, seed=seed)
        labels, neg, pos = streams(seed, 3, np.random.SFC64)
        n_plus = int(labels.binomial(n, 0.5))
        plus = _one_call_counts(pos, n_plus, MIXED.mu2, MIXED.sigma2, lo, hi)
        minus = _one_call_counts(neg, n - n_plus, MIXED.mu1, MIXED.sigma1, lo, hi)
        n_pos, n_neg = plus[0] + minus[0], plus[1] + minus[1]
        assert mc.n == n
        assert mc.dist.p_pos == n_pos / n
        assert mc.dist.p_neg == n_neg / n
        assert mc.dist.p_mask == (n - n_pos - n_neg) / n


# float32 fills read 32-bit halves of SFC64's 64-bit outputs and carry the
# spare half into the next call, so odd block sizes are the ones to check
@pytest.mark.parametrize("m", [0, 1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 7])
def test_component_counts_in_blocks_equal_one_call_draw(m):
    lo, hi = theory._band_edges(MIXED)
    want = _one_call_counts(streams(m, 1, np.random.SFC64)[0], m, MIXED.mu2, MIXED.sigma2, lo, hi)
    counts = theory._count_tails(streams(m, 1, np.random.SFC64)[0], m, MIXED.mu2, MIXED.sigma2, lo, hi)
    assert counts == want


def test_mc_streams_are_sfc64(monkeypatch):
    drawn = []

    def recorded_streams(*args):
        made = streams(*args)
        drawn.extend(made)
        return made

    monkeypatch.setattr(theory, "streams", recorded_streams)
    mc_dist(MIXED, 1000, seed=0)
    assert [type(g.bit_generator) for g in drawn] == [np.random.SFC64] * 3


@pytest.mark.parametrize("nudge", [-1e-12, 0.0, 1e-12])
def test_count_tails_on_and_beside_a_drawn_value(nudge):
    """An edge on a drawn float32 value, or between it and its neighbour,
    counts as the float64 comparison does: the float32 edges are rounded
    outward, not to nearest."""
    m = 1000
    z = streams(3, 1, np.random.SFC64)[0].standard_normal(m, dtype=np.float32).astype(np.float64)
    for edge in z[:10] * (1.0 + nudge):
        counts = theory._count_tails(streams(3, 1, np.random.SFC64)[0], m, 0.0, 1.0, edge, edge)
        assert counts == (int((z > edge).sum()), int((z < edge).sum()))


def test_count_tails_with_edges_beyond_float32_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert theory._count_tails(streams(0, 1, np.random.SFC64)[0], 100, 0.0, 1e-300, -1.0, 1.0) == (0, 0)


# -- the helper thread that counts the +1 component -------------------------------


def test_closing_mixture_blocks_early_stops_its_helper_thread(monkeypatch):
    """mc_dist's helper thread lives only for the draw, also when this
    thread's count raises."""
    before = threading.active_count()
    mc_dist(MIXED, 3 * MC_BLOCK, 0)
    assert threading.active_count() == before
    real_count = theory._count_tails
    during = []

    def count_fails_on_this_thread(*args):
        if threading.current_thread() is threading.main_thread():
            during.append(threading.active_count())
            raise RuntimeError("count failed")
        return real_count(*args)

    monkeypatch.setattr(theory, "_count_tails", count_fails_on_this_thread)
    with pytest.raises(RuntimeError, match="count failed"):
        mc_dist(MIXED, 3 * MC_BLOCK, 0)
    assert during == [before + 1]  # the helper was counting the +1 component
    assert threading.active_count() == before


def test_an_exception_in_the_helper_is_raised_in_the_caller_as_itself(monkeypatch):
    """Only the helper's stream, the +1 component's, fails: mc_dist raises
    that very exception, after the helper thread has ended."""
    before = threading.active_count()
    real_count = theory._count_tails
    failure = RuntimeError("helper count failed")
    counted_on = {}

    def count_fails_on_the_helper(rng, m, mu, *rest):
        counted_on[mu] = threading.current_thread()
        if mu == MIXED.mu2:
            raise failure
        return real_count(rng, m, mu, *rest)

    monkeypatch.setattr(theory, "_count_tails", count_fails_on_the_helper)
    with pytest.raises(RuntimeError) as exc_info:
        mc_dist(MIXED, 3 * MC_BLOCK, 0)
    assert exc_info.value is failure
    assert counted_on[MIXED.mu1] is threading.main_thread() and counted_on[MIXED.mu2] is not threading.main_thread()
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
    """`sweep` is analytic only; `with_mc` adds the draw at the seeds the
    theory command gives a sweep seeded 9."""
    for i, row in enumerate(sweep(SPEC, "tau", [0.6, 0.8]).rows):
        assert row.mc is None and row.spec == replace(SPEC, tau=row.param)
        row = with_mc(row, 20_000, seed=9 + i)
        assert row.mc is not None
        assert abs(row.mc.dist.p_mask - row.dist.p_mask) <= 5 * max(row.mc.se_mask, 1e-4)
