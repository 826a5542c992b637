import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freematch_lab.adaptive_threshold import Sat, ThresholdState, mask, per_class_thresholds
from freematch_lab.ndcore import Tensor, no_grad, softmax, softmax_backward
from freematch_lab.ssl_losses import (
    FairnessVariant,
    _sum_norm,
    consistency_loss,
    fairness_loss,
    supervised_loss,
    total_loss,
)


def _rand_probs(rng, B, C):
    p = rng.uniform(0.01, 1.0, size=(B, C))
    return p / p.sum(axis=1, keepdims=True)


# -- supervised ---------------------------------------------------------------


def test_supervised_perfect_prediction_is_zero():
    logits = Tensor(np.array([[200.0, 0.0], [0.0, 200.0]]), requires_grad=True)
    loss = supervised_loss(logits, np.array([0, 1]))
    assert float(loss) == pytest.approx(0.0, abs=1e-12)


def test_supervised_analytic_value():
    logits = Tensor(np.log(np.array([[0.2, 0.8]])), requires_grad=True)
    loss = supervised_loss(logits, np.array([1]))
    assert float(loss) == pytest.approx(-math.log(0.8), abs=1e-12)


@pytest.mark.parametrize("C", [2, 3, 7, 11])
def test_supervised_uniform_prediction_is_log_C(C):
    logits = Tensor(np.zeros((5, C)), requires_grad=True)
    loss = supervised_loss(logits, np.arange(5) % C)
    assert float(loss) == pytest.approx(math.log(C), abs=1e-14)


def test_supervised_rejects_bad_labels():
    with pytest.raises(ValueError):
        supervised_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))


# -- consistency ----------------------------------------------------------------


def test_consistency_all_masked_out_is_zero():
    weak = np.array([[0.6, 0.4], [0.55, 0.45]])
    strong = Tensor(np.zeros((2, 2)), requires_grad=True)
    loss, keep = consistency_loss(weak, strong, np.array([0.95, 0.95]))
    assert float(loss) == 0.0 and not keep.any()


def test_consistency_single_masked_in_arithmetic():
    # batch of 2, one passes; strong prob 0.7 on its pseudo class
    weak = np.array([[0.99, 0.01], [0.5, 0.5]])
    strong = Tensor(np.log(np.array([[0.7, 0.3], [0.5, 0.5]])), requires_grad=True)
    loss, keep = consistency_loss(weak, strong, np.array([0.95, 0.95]))
    assert keep.tolist() == [True, False]
    assert float(loss) == pytest.approx(0.5 * -math.log(0.7), abs=1e-12)


def test_consistency_matches_brute_force_summation():
    rng = np.random.default_rng(0)
    B, C = 32, 4
    weak = _rand_probs(rng, B, C)
    strong_logits = rng.normal(size=(B, C))
    th = rng.uniform(0.2, 0.6, size=C)
    loss, keep = consistency_loss(weak, Tensor(strong_logits, requires_grad=True), th)

    # straight-line oracle: per-sample cross-entropy, summed, over full B
    sp = softmax(strong_logits)
    total = 0.0
    for b in range(B):
        c = int(weak[b].argmax())
        if weak[b].max() >= th[c]:
            total += -math.log(sp[b, c])
    assert float(loss) == pytest.approx(total / B, abs=1e-12)


def test_consistency_nonnegative_and_zero_at_certainty():
    rng = np.random.default_rng(1)
    weak = _rand_probs(rng, 16, 3)
    th = np.zeros(3)  # everything passes
    hard = weak.argmax(axis=1)
    confident = np.full((16, 3), -400.0)
    confident[np.arange(16), hard] = 400.0
    loss, keep = consistency_loss(weak, Tensor(confident, requires_grad=True), th)
    assert keep.all()
    assert float(loss) == pytest.approx(0.0, abs=1e-12)
    loss2, _ = consistency_loss(weak, Tensor(rng.normal(size=(16, 3)), requires_grad=True), th)
    assert float(loss2) > 0


def test_consistency_gradient_only_through_strong():
    rng = np.random.default_rng(2)
    weak = _rand_probs(rng, 8, 3)
    strong = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    loss, keep = consistency_loss(weak, strong, np.full(3, 0.2))
    loss.backward()
    # masked-out rows receive zero gradient
    assert np.array_equal(np.nonzero(np.abs(strong.grad).sum(axis=1))[0], np.nonzero(keep)[0])


# -- fairness ------------------------------------------------------------------------


def _state_with(p_local, hist, C=None):
    C = C or len(p_local)
    state = ThresholdState(C=C)
    state.p_local = np.asarray(p_local, dtype=float)
    state.hist = np.asarray(hist, dtype=float)
    return state


def test_fairness_none_is_zero():
    state = _state_with([0.5, 0.5], [0.5, 0.5])
    out = fairness_loss(
        FairnessVariant.NONE, state, np.array([[0.9, 0.1]]), Tensor(np.array([[0.9, 0.1]])), np.zeros(2)
    )
    assert float(out) == 0.0


def test_fairness_balanced_case_is_minus_log_two():
    state = _state_with([0.5, 0.5], [0.5, 0.5])
    weak = np.array([[0.9, 0.1], [0.1, 0.9]])
    strong_probs = Tensor(np.array([[0.6, 0.4], [0.4, 0.6]]), requires_grad=True)
    out = fairness_loss(FairnessVariant.SAF, state, weak, strong_probs, np.zeros(2))
    assert float(out) == pytest.approx(-math.log(2.0), abs=1e-12)


def test_fairness_zero_when_nothing_masked_in():
    state = _state_with([0.5, 0.5], [0.5, 0.5])
    weak = np.array([[0.6, 0.4]])
    out = fairness_loss(FairnessVariant.SAF, state, weak, Tensor(np.array([[0.6, 0.4]])), np.array([0.99, 0.99]))
    assert float(out) == 0.0


def test_fairness_saf_matches_straight_line_recomputation():
    rng = np.random.default_rng(3)
    B, C = 24, 4
    state = _state_with(_rand_probs(rng, 1, C)[0], _rand_probs(rng, 1, C)[0])
    weak = _rand_probs(rng, B, C)
    strong = _rand_probs(rng, B, C)
    th = rng.uniform(0.2, 0.5, size=C)
    out = fairness_loss(FairnessVariant.SAF, state, weak, Tensor(strong, requires_grad=True), th)

    # independent re-computation of the formula chain
    keep, _ = mask(weak, th)
    p_bar = (strong[keep]).sum(axis=0) / B
    hard = strong.argmax(axis=1)
    h_bar = np.bincount(hard[keep], minlength=C) / keep.sum()
    a = state.p_local / np.maximum(state.hist, 1e-9)
    a = a / a.sum()
    s = p_bar / np.maximum(h_bar, 1e-9)
    s = s / s.sum()
    expected = float((a * np.log(s)).sum())
    assert float(out) == pytest.approx(expected, abs=1e-10)


def test_fairness_saf_empty_class_uses_the_floored_histogram():
    # every row is kept, but no strong-branch argmax falls in class 2
    B, C = 4, 3
    state = _state_with(np.full(C, 1.0 / C), np.full(C, 1.0 / C))
    weak = np.array([[0.8, 0.1, 0.1], [0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.7, 0.1]])
    strong = np.array([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1], [0.2, 0.7, 0.1], [0.3, 0.6, 0.1]])
    out = fairness_loss(FairnessVariant.SAF, state, weak, Tensor(strong, requires_grad=True), np.zeros(C))

    p_bar = strong.sum(axis=0) / B + 1e-12
    h_bar = np.array([2.0, 2.0, 0.0]) / B
    s = p_bar / np.maximum(h_bar, 1e-9)
    s = s / s.sum()
    expected = float((np.log(s) / C).sum())
    assert float(out) == pytest.approx(expected, rel=1e-12)
    # the empty class takes almost all of SumNorm(p_bar / h_bar): l_f spikes
    assert s[2] > 1 - 1e-7
    assert float(out) < -10 * math.log(C)


def test_fairness_uniform_prior_value_and_masking():
    state = _state_with([0.5, 0.5], [0.5, 0.5])
    weak = np.array([[0.99, 0.01], [0.5, 0.5]])
    strong_probs = Tensor(np.array([[0.7, 0.3], [0.2, 0.8]]), requires_grad=True)
    out = fairness_loss(FairnessVariant.UNIFORM_PRIOR, state, weak, strong_probs, np.array([0.95, 0.95]))
    # only the first sample is masked in, so p_bar' = [0.7, 0.3]
    assert float(out) == pytest.approx(0.5 * (math.log(0.7) + math.log(0.3)), abs=1e-10)


def test_fairness_saf_invariant_to_ratio_rescaling():
    rng = np.random.default_rng(4)
    B, C = 16, 3
    weak = _rand_probs(rng, B, C)
    strong = Tensor(_rand_probs(rng, B, C), requires_grad=True)
    th = np.full(C, 0.2)
    p_loc, hist = _rand_probs(rng, 1, C)[0], _rand_probs(rng, 1, C)[0]
    a = fairness_loss(FairnessVariant.SAF, _state_with(p_loc, hist), weak, strong, th)
    b = fairness_loss(FairnessVariant.SAF, _state_with(7.3 * p_loc / (7.3 * p_loc).sum(), hist), weak, strong, th)
    # common positive rescaling of the numerator vector is absorbed by SumNorm
    assert float(a) == pytest.approx(float(b), abs=1e-12)


def test_fairness_gradient_flows_only_through_soft_mass():
    rng = np.random.default_rng(5)
    weak = _rand_probs(rng, 8, 3)
    th = np.full(3, np.median(weak.max(axis=1)))  # splits the batch
    strong = Tensor(_rand_probs(rng, 8, 3), requires_grad=True)
    state = _state_with(_rand_probs(rng, 1, 3)[0], _rand_probs(rng, 1, 3)[0])
    out = fairness_loss(FairnessVariant.SAF, state, weak, strong, th)
    out.backward()
    keep, _ = mask(weak, th)
    assert keep.any() and not keep.all()
    assert np.abs(strong.grad[~keep]).max() == 0.0
    assert np.abs(strong.grad[keep]).max() > 0.0


def tensor_op_fairness(variant, state, weak, strong_probs, th):
    """The fairness term composed of general Tensor ops (masked sum, scale, +,
    /, SumNorm, log, weighted sum): the reference that fairness_loss's single
    node must match bit for bit, in value and gradient."""
    keep, _ = mask(weak, th)
    n_in = int(keep.sum())
    if variant is FairnessVariant.NONE or n_in == 0:
        return Tensor(0.0)
    B, C = strong_probs.data.shape
    keep_col = keep.astype(np.float64)[:, None]
    if variant is FairnessVariant.UNIFORM_PRIOR:
        p_bar = (strong_probs * keep_col).sum(axis=0) * (1.0 / n_in) + 1e-12
        return (p_bar.log() * np.full(C, 1.0 / C)).sum()
    p_bar = (strong_probs * keep_col).sum(axis=0) * (1.0 / B) + 1e-12
    h_bar = np.bincount(strong_probs.data.argmax(axis=1)[keep], minlength=C).astype(np.float64) / n_in
    target = _sum_norm(state.p_local / np.maximum(state.hist, 1e-9))
    batch_ratio = _sum_norm(p_bar / np.maximum(h_bar, 1e-9))
    return (batch_ratio.log() * target).sum()


def _fairness_case(name):
    """(state, weak probs, strong logits, thresholds) for one bit-identity case."""
    rng = np.random.default_rng(7)
    if name == "empty_class":
        # every row kept, no strong argmax in class 2: h_bar[2] is floored at 1e-9
        strong = np.array([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1], [0.2, 0.7, 0.1], [0.3, 0.6, 0.1]])
        weak = np.array([[0.8, 0.1, 0.1], [0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.7, 0.1]])
        return _state_with(np.full(3, 1 / 3), np.full(3, 1 / 3)), weak, np.log(strong), np.zeros(3)
    B, C = (12, 2) if name == "two_class" else (24, 4)
    weak = _rand_probs(rng, B, C)
    th = np.full(C, np.median(weak.max(axis=1)))  # keeps about half the rows
    return _state_with(_rand_probs(rng, 1, C)[0], _rand_probs(rng, 1, C)[0]), weak, rng.normal(size=(B, C)), th


@pytest.mark.parametrize("case", ["split", "two_class", "empty_class"])
@pytest.mark.parametrize("variant", [FairnessVariant.SAF, FairnessVariant.UNIFORM_PRIOR])
def test_fairness_node_matches_the_tensor_op_chain_bit_for_bit(variant, case):
    state, weak, logits, th = _fairness_case(case)
    results = []
    for build in (fairness_loss, tensor_op_fairness):
        z = Tensor(logits.copy(), requires_grad=True)
        out = build(variant, state, weak, softmax(z), th)
        (out * 0.01).backward()  # upstream weight w_f, as the total loss feeds it
        results.append((float(out), z.grad))
    (node_value, node_grad), (chain_value, chain_grad) = results
    assert node_value == chain_value and np.array_equal(node_grad, chain_grad)
    if case == "empty_class" and variant is FairnessVariant.SAF:
        assert node_value < -10 * math.log(3)  # the floored histogram's spike
    # the array form, as the training step calls it, returns the same value and gradient
    probs = softmax(logits)
    value, d_probs = fairness_loss(variant, state, weak, probs, th, 0.01)
    assert value == chain_value and np.array_equal(softmax_backward(probs, d_probs), chain_grad)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=8).filter(lambda v: sum(v) > 0))
def test_sum_norm_lands_on_simplex(values):
    out = _sum_norm(np.asarray(values))
    assert abs(out.sum() - 1.0) <= 1e-12
    assert (out >= 0).all()


# -- total ------------------------------------------------------------------------


def test_total_arithmetic():
    total = total_loss(1.0, 2.0, -0.5, w_u=1.0, w_f=0.01)
    assert total == pytest.approx(2.995, abs=1e-15)


def test_total_degenerates_without_fairness():
    total = total_loss(1.0, 2.0, -0.5, w_u=1.0, w_f=0.0)
    assert total == pytest.approx(3.0, abs=0)


def test_total_composes_graph_tensors():
    l_s = Tensor(np.array(1.0), requires_grad=True)
    l_u = Tensor(np.array(2.0), requires_grad=True)
    total = total_loss(l_s, l_u, 0.0, w_u=0.5, w_f=0.0)
    total.backward()
    assert float(total) == pytest.approx(2.0, abs=1e-15)
    assert l_s.grad == pytest.approx(1.0) and l_u.grad == pytest.approx(0.5)


def test_total_rejects_non_finite():
    with pytest.raises(ValueError):
        total_loss(float("nan"), 0.0, 0.0)


# -- composite gradient check --------------------------------------------------------


def test_total_loss_gradient_matches_finite_differences():
    # d(total)/d(strong logits) with weak probs and thresholds held constant
    rng = np.random.default_rng(6)
    B, C = 6, 3
    weak = _rand_probs(rng, B, C)
    state = _state_with(_rand_probs(rng, 1, C)[0], _rand_probs(rng, 1, C)[0])
    th = per_class_thresholds(state, Sat())
    strong_logits = Tensor(rng.normal(size=(B, C)), requires_grad=True)

    def build(t: Tensor):
        l_u, _ = consistency_loss(weak, t, th)
        l_f = fairness_loss(FairnessVariant.SAF, state, weak, softmax(t), th)
        return total_loss(0.1, l_u, l_f, w_u=1.0, w_f=0.05)

    build(strong_logits).backward()
    ad = strong_logits.grad.copy()

    fd = np.zeros_like(ad)
    h = 1e-5
    x = strong_logits.data
    for i in np.ndindex(x.shape):
        orig = x[i]
        with no_grad():
            x[i] = orig + h
            fp = float(build(strong_logits))
            x[i] = orig - h
            fm = float(build(strong_logits))
        x[i] = orig
        fd[i] = (fp - fm) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-6)
    assert np.max(np.abs(ad - fd) / denom) <= 1e-4
