import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freematch_lab.adaptive_threshold import (
    Cpl,
    Fixed,
    GlobalOnly,
    LocalOnly,
    Sat,
    ThresholdState,
    mask,
    observe,
    per_class_thresholds,
    scheme_from_dict,
    scheme_to_dict,
    update_cpl_counts,
    update_global,
    update_hist,
    update_local,
)


def _rand_probs(rng, B, C):
    p = rng.uniform(0.01, 1.0, size=(B, C))
    return p / p.sum(axis=1, keepdims=True)


# batches off the simplex only through a NaN: every comparison with NaN is False
NAN_BATCHES = [np.array([[np.nan, np.nan]]), np.array([[0.3, 0.7], [np.nan, 0.5]])]


# -- initialization ---------------------------------------------------------------


def test_initial_global_threshold_is_one_over_C():
    assert ThresholdState(C=10).tau_global == pytest.approx(0.1, abs=0)


def test_initial_local_estimate_is_uniform():
    state = ThresholdState(C=4)
    assert np.array_equal(state.p_local, [0.25, 0.25, 0.25, 0.25])


# -- update_global -----------------------------------------------------------------


def test_update_global_plug_in_arithmetic():
    state = ThresholdState(C=2, lam=0.9)
    state.tau_global = 0.5
    update_global(state, np.array([0.6, 0.8]))  # max confidences of [[0.6, 0.4], [0.2, 0.8]]
    assert state.tau_global == pytest.approx(0.9 * 0.5 + 0.1 * 0.7, abs=1e-15)


def test_update_global_converges_geometrically_to_constant_input():
    state = ThresholdState(C=2, lam=0.9)
    for _ in range(400):
        update_global(state, np.array([0.85]))
    assert state.tau_global == pytest.approx(0.85, abs=1e-15)


def test_update_global_rejects_empty_batch():
    """update_global reads confidences that observe derives from a checked batch."""
    state = ThresholdState(C=2)
    with pytest.raises(ValueError, match="non-empty"):
        observe(state, np.zeros((0, 2)), GlobalOnly())
    assert state.tau_global == 0.5


def test_update_global_rejects_nan_rows():
    state = ThresholdState(C=2)
    for probs in NAN_BATCHES:
        with pytest.raises(ValueError, match="probability simplex"):
            observe(state, probs, GlobalOnly())
    assert state.tau_global == 0.5


# -- update_local ------------------------------------------------------------------


def test_update_local_plug_in():
    state = ThresholdState(C=2, lam=0.5)
    state.p_local = np.array([1.0, 0.0])
    update_local(state, np.array([[0.0, 1.0]]))
    assert np.allclose(state.p_local, [0.5, 0.5], atol=1e-15)


def test_update_local_rejects_nan_rows():
    """update_local reads rows that observe has checked."""
    state = ThresholdState(C=2)
    for probs in NAN_BATCHES:
        with pytest.raises(ValueError, match="probability simplex"):
            observe(state, probs, LocalOnly(0.8))
    assert np.array_equal(state.p_local, [0.5, 0.5])


def test_update_local_stays_on_simplex():
    rng = np.random.default_rng(0)
    state = ThresholdState(C=5, lam=0.7)
    for _ in range(200):
        update_local(state, _rand_probs(rng, 8, 5))
        assert abs(state.p_local.sum() - 1.0) <= 1e-9


# -- update_hist -------------------------------------------------------------------


def test_update_hist_replaces_at_lambda_extreme():
    state = ThresholdState(C=2, lam=1e-12)
    update_hist(state, np.array([0, 0, 0]))
    assert np.allclose(state.hist, [1.0, 0.0], atol=1e-9)


def test_update_hist_normalized_batch():
    state = ThresholdState(C=2, lam=1e-12)
    update_hist(state, np.array([0, 1, 1, 1]))
    assert np.allclose(state.hist, [0.25, 0.75], atol=1e-9)


def test_update_hist_matches_recurrence_replay():
    rng = np.random.default_rng(1)
    state = ThresholdState(C=3, lam=0.95)
    replay = np.full(3, 1.0 / 3.0)
    for _ in range(100):
        labels = rng.integers(0, 3, size=12)
        update_hist(state, labels)
        h = np.bincount(labels, minlength=3) / 12.0
        replay = 0.95 * replay + 0.05 * h
    assert np.max(np.abs(state.hist - replay)) <= 1e-12


# -- EMA closed form ----------------------------------------------------------------


def test_global_threshold_closed_form():
    rng = np.random.default_rng(2)
    lam, C, T = 0.9, 4, 60
    state = ThresholdState(C=C, lam=lam)
    batch_means = []
    for _ in range(T):
        conf = _rand_probs(rng, 6, C).max(axis=1)
        batch_means.append(conf.mean())
        update_global(state, conf)
    closed = lam**T / C + (1 - lam) * sum(
        lam ** (T - i) * m for i, m in enumerate(batch_means, start=1)
    )
    assert state.tau_global == pytest.approx(closed, abs=1e-10)


# -- per_class_thresholds -------------------------------------------------------------


def test_sat_thresholds_arithmetic():
    state = ThresholdState(C=3)
    state.p_local = np.array([0.2, 0.3, 0.5])
    state.tau_global = 0.9
    th = per_class_thresholds(state, Sat())
    assert np.allclose(th, [0.36, 0.54, 0.9], atol=1e-12)


def test_uniform_local_estimate_gives_global_everywhere():
    state = ThresholdState(C=4)
    state.tau_global = 0.77
    th = per_class_thresholds(state, Sat())
    assert np.allclose(th, 0.77, atol=1e-15)


def test_clamp_applies_last():
    state = ThresholdState(C=3, clamp=(0.9, 0.95))
    state.p_local = np.array([0.2, 0.3, 0.5])
    state.tau_global = 0.9
    th = per_class_thresholds(state, Sat())
    assert np.allclose(th, [0.9, 0.9, 0.9], atol=1e-12)


def test_fixed_global_local_variants():
    state = ThresholdState(C=2)
    state.p_local = np.array([0.25, 0.75])
    state.tau_global = 0.6
    assert np.allclose(per_class_thresholds(state, Fixed(0.95)), [0.95, 0.95])
    assert np.allclose(per_class_thresholds(state, GlobalOnly()), [0.6, 0.6])
    assert np.allclose(per_class_thresholds(state, LocalOnly(0.9)), [0.3, 0.9])


def test_cpl_before_any_counts():
    state = ThresholdState(C=3)
    th = per_class_thresholds(state, Cpl(0.95))
    assert np.array_equal(th, [0.0, 0.0, 0.0])


def test_cpl_counts_and_mapping():
    state = ThresholdState(C=2)
    observe(state, np.array([[0.97, 0.03], [0.98, 0.02], [0.3, 0.7]]), Cpl(0.95))
    assert np.array_equal(state.cpl_counts, [2.0, 0.0])
    assert np.allclose(per_class_thresholds(state, Cpl(0.9)), [0.9, 0.0])
    assert np.allclose(per_class_thresholds(state, Cpl(0.9, mapping="convex")), [0.9, 0.0])
    # convex mapping bends intermediate ratios downward
    state.cpl_counts = np.array([4.0, 2.0])
    th = per_class_thresholds(state, Cpl(1.0, mapping="convex"))
    assert th[1] == pytest.approx(0.5 / 1.5, abs=1e-12)


def test_cpl_counts_a_confidence_above_tau_not_at_it():
    """A row whose confidence equals tau is not counted; one just above is."""
    state = ThresholdState(C=2)
    observe(state, np.array([[0.75, 0.25], [0.25, 0.75], [0.125, 0.875]]), Cpl(0.75))
    assert np.array_equal(state.cpl_counts, [0.0, 1.0])


def test_update_cpl_counts_rejects_nan_rows():
    """update_cpl_counts reads confidences and labels that observe derives from a checked batch."""
    state = ThresholdState(C=2)
    for probs in NAN_BATCHES:
        with pytest.raises(ValueError, match="probability simplex"):
            observe(state, probs, Cpl(0.5))
    assert np.array_equal(state.cpl_counts, [0.0, 0.0])


def test_cpl_counts_accumulate_without_warmup():
    """Where Cpl departs from FlexMatch's CPL: a batch observed on two steps
    counts twice, and one confident row of 14 lifts its class straight to tau."""
    state = ThresholdState(C=2)
    probs = np.array([[0.99, 0.01]] + [[0.6, 0.4]] * 13)
    observe(state, probs, Cpl(0.95))
    assert np.array_equal(state.cpl_counts, [1.0, 0.0])
    assert np.array_equal(per_class_thresholds(state, Cpl(0.95)), [0.95, 0.0])
    observe(state, probs, Cpl(0.95))
    assert np.array_equal(state.cpl_counts, [2.0, 0.0])


def test_sat_dominated_by_global():
    rng = np.random.default_rng(3)
    state = ThresholdState(C=6)
    for _ in range(50):
        update_local(state, _rand_probs(rng, 10, 6))
        update_global(state, _rand_probs(rng, 10, 6).max(axis=1))
    th = per_class_thresholds(state, Sat())
    assert (th <= state.tau_global + 1e-12).all()
    assert th[state.p_local.argmax()] == pytest.approx(state.tau_global, abs=1e-15)


# -- observe -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheme, counts",
    [(Fixed(0.9), False), (GlobalOnly(), False), (LocalOnly(0.8), False), (Sat(), False), (Cpl(0.9), True)],
    ids=["fixed", "global_only", "local_only", "sat", "cpl"],
)
def test_observe_is_the_direct_updates(scheme, counts):
    """observe leaves the state bit-identical to update_global, update_local
    and update_hist called directly on the batch's max confidences, rows and
    argmaxes, plus update_cpl_counts for Cpl alone; every other scheme's counts
    stay at zero, though its batches hold confident rows."""
    rng = np.random.default_rng(12)
    observed, direct = ThresholdState(C=3, lam=0.9), ThresholdState(C=3, lam=0.9)
    for _ in range(20):
        probs = _rand_probs(rng, 8, 3) ** 6
        probs /= probs.sum(axis=1, keepdims=True)
        observe(observed, probs, scheme)
        conf, hard = probs.max(axis=1), probs.argmax(axis=1)
        update_global(direct, conf)
        update_local(direct, probs)
        update_hist(direct, hard)
        if counts:
            update_cpl_counts(direct, conf, hard, scheme.tau)
    assert observed.tau_global == direct.tau_global
    for name in ("p_local", "hist", "cpl_counts"):
        assert np.array_equal(getattr(observed, name), getattr(direct, name))
    assert observed.cpl_counts.any() == counts


def test_observe_rejects_a_bad_batch_and_changes_nothing():
    """observe checks the batch once, before any statistic moves: a NaN row, an
    empty batch or a wrong class count raises and leaves all four untouched."""
    state, fresh = ThresholdState(C=2), ThresholdState(C=2)
    bad = [(probs, "probability simplex") for probs in NAN_BATCHES]
    bad += [(np.zeros((0, 2)), "non-empty"), (np.full((2, 3), 1.0 / 3.0), "3 classes, state has 2")]
    for probs, message in bad:
        with pytest.raises(ValueError, match=message):
            observe(state, probs, Cpl(0.5))  # the second NaN batch holds a row above 0.5
        assert state.tau_global == fresh.tau_global
        for name in ("p_local", "hist", "cpl_counts"):
            assert np.array_equal(getattr(state, name), getattr(fresh, name))


# -- mask --------------------------------------------------------------------------


def test_mask_excludes_below_class_threshold():
    keep, hard = mask(np.array([[0.1, 0.9]]), np.array([0.8, 0.95]))
    assert hard.tolist() == [1] and keep.tolist() == [False]


def test_mask_includes_at_or_above():
    keep, hard = mask(np.array([[0.97, 0.03]]), np.array([0.95, 0.95]))
    assert keep.tolist() == [True] and hard.tolist() == [0]
    keep_eq, _ = mask(np.array([[0.95, 0.05]]), np.array([0.95, 0.95]))
    assert keep_eq.tolist() == [True]  # >= convention


def test_mask_matches_row_by_row_oracle():
    rng = np.random.default_rng(4)
    probs = _rand_probs(rng, 64, 5)
    th = rng.uniform(0.1, 0.9, size=5)
    keep, hard = mask(probs, th)
    for b in range(64):
        row = probs[b]
        c = int(np.argmax(row))
        assert hard[b] == c
        assert keep[b] == (row.max() >= th[c])


def test_mask_argmax_ties_break_low():
    keep, hard = mask(np.array([[0.5, 0.5]]), np.array([0.4, 0.4]))
    assert hard.tolist() == [0]


def test_fixed_scheme_reproduces_plain_max_test():
    rng = np.random.default_rng(5)
    probs = _rand_probs(rng, 200, 10)
    state = ThresholdState(C=10)
    th = per_class_thresholds(state, Fixed(0.95))
    keep, _ = mask(probs, th)
    assert np.array_equal(keep, probs.max(axis=1) >= 0.95)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mask_monotone_under_threshold_raising(seed):
    rng = np.random.default_rng(seed)
    probs = _rand_probs(rng, 16, 4)
    th = rng.uniform(0.0, 1.0, size=4)
    keep_lo, _ = mask(probs, th)
    keep_hi, _ = mask(probs, th + rng.uniform(0.0, 0.5, size=4))
    assert not (keep_hi & ~keep_lo).any()


# -- invariants over random update streams -----------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_state_invariants_under_random_updates(seed):
    rng = np.random.default_rng(seed)
    C = int(rng.integers(2, 8))
    state = ThresholdState(C=C, lam=float(rng.uniform(0.2, 0.999)))
    for _ in range(50):
        probs = _rand_probs(rng, int(rng.integers(1, 12)), C)
        observe(state, probs, Sat())
        assert 1.0 / C - 1e-12 <= state.tau_global <= 1.0 + 1e-12
        assert abs(state.p_local.sum() - 1.0) <= 1e-9
        assert abs(state.hist.sum() - 1.0) <= 1e-9


# -- serialization -------------------------------------------------------------------


def test_scheme_dict_roundtrip():
    for scheme in (Fixed(0.9), GlobalOnly(), LocalOnly(0.8), Sat(), Cpl(0.95, "convex")):
        assert scheme_from_dict(scheme_to_dict(scheme)) == scheme
    with pytest.raises(ValueError):
        scheme_from_dict({"kind": "bogus"})
    with pytest.raises(ValueError):
        scheme_from_dict({"kind": "fixed", "tau": 0.9, "extra": 1})
    with pytest.raises(ValueError, match=r"unknown scheme kind \['sat'\]"):
        scheme_from_dict({"kind": ["sat"]})
