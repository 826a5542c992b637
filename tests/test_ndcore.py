import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freematch_lab.ndcore import (
    MlpModel,
    OptimState,
    ParamEma,
    Tensor,
    cosine_lr,
    ema_model,
    ema_update,
    forward,
    linear,
    log_softmax,
    mlp_backward,
    mlp_forward,
    no_grad,
    sgd_step,
    softmax,
    weighted_nll,
)


# -- forward -------------------------------------------------------------------


def test_forward_identity_single_layer():
    model = MlpModel([(Tensor(np.eye(2), requires_grad=True), Tensor(np.zeros(2), requires_grad=True))])
    out = forward(model, np.array([[1.0, 2.0]]))
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_forward_zero_weights_yields_bias():
    b = np.array([0.3, -1.2, 4.0])
    model = MlpModel([(Tensor(np.zeros((2, 3))), Tensor(b))])
    out = forward(model, np.random.default_rng(0).normal(size=(5, 2)))
    assert np.allclose(out.data, np.tile(b, (5, 1)), atol=0)


def test_forward_matches_straight_line_recomputation():
    # independent oracle: plain numpy matmul chain, no Tensor machinery
    rng = np.random.default_rng(42)
    model = MlpModel.init([2, 64, 64, 64, 2], seed=7)
    x = rng.normal(size=(5, 2))
    got = forward(model, x).data

    h = x
    mats = [(w.data, b.data) for (w, b) in model.layers]
    for i, (w, b) in enumerate(mats):
        h = h @ w + b
        if i != len(mats) - 1:
            h = np.maximum(h, 0.0)
    assert np.max(np.abs(got - h)) <= 1e-12


def test_forward_rejects_width_mismatch():
    model = MlpModel.init([3, 4, 2], seed=0)
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 2)))


# -- softmax -------------------------------------------------------------------


def test_softmax_symmetry():
    assert np.allclose(softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)


def test_softmax_analytic():
    out = softmax(np.array([[math.log(1.0), math.log(3.0)]]))
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-15)


def test_softmax_stabilized_no_overflow():
    out = softmax(np.array([[1000.0, 0.0]]))
    assert np.isfinite(out).all()
    assert out[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_softmax_rejects_nan():
    with pytest.raises(ValueError):
        softmax(np.array([[np.nan, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
    st.randoms(use_true_random=False),
)
def test_softmax_rows_sum_to_one_and_permutation_equivariant(row, rnd):
    x = np.array([row])
    s = softmax(x)
    assert abs(s.sum() - 1.0) <= 1e-12
    perm = list(range(len(row)))
    rnd.shuffle(perm)
    assert np.allclose(softmax(x[:, perm]), s[:, perm], atol=1e-12)
    assert np.array_equal(softmax(Tensor(x)).data, s)


# -- backward -------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_cross_entropy_identity():
    # d/dz of CE(softmax(z), onehot(y)) is softmax(z) - onehot(y)
    rng = np.random.default_rng(2)
    z = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    y = np.array([0, 2, 1, 1])
    onehot = np.zeros((4, 3))
    onehot[np.arange(4), y] = 1.0
    loss = -(log_softmax(z) * onehot).sum()
    loss.backward()
    expected = softmax(z.data) - onehot
    assert np.max(np.abs(z.grad - expected)) <= 1e-12


def test_backward_rejects_non_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def _finite_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def _grad_close(ad: np.ndarray, fd: np.ndarray, rtol: float = 1e-4) -> bool:
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-6)
    return bool(np.max(np.abs(ad - fd) / denom) <= rtol)


def test_backward_mlp_loss_matches_finite_differences():
    rng = np.random.default_rng(3)
    model = MlpModel.init([3, 8, 4], seed=11)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 4, size=6)
    onehot = np.zeros((6, 4))
    onehot[np.arange(6), y] = 1.0 / 6.0

    def loss_value() -> float:
        with no_grad():
            return float(-(log_softmax(forward(model, x)) * onehot).sum())

    loss = -(log_softmax(forward(model, x)) * onehot).sum()
    loss.backward()
    for p in model.parameters():
        fd = _finite_diff(loss_value, p.data)
        assert _grad_close(p.grad, fd)


def _random_graph_value_and_leaves(rng):
    """Build a random small op graph; returns (scalar Tensor fn, leaves)."""
    shapes = [(2, 3), (3, 3), (1, 3)]
    shape = shapes[rng.integers(0, len(shapes))]
    a = Tensor(rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape), requires_grad=True)
    b = Tensor(rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape), requires_grad=True)

    op = rng.integers(0, 5)

    def build():
        t = a * b + a
        if op == 0:
            t = t.relu() + b * 0.5
        elif op == 1:
            t = (t * 0.3).exp()
        elif op == 2:
            t = softmax(t)
        elif op == 3:
            t = log_softmax(t) * 0.1
        else:
            t = t / (b * b + 1.0)
        return (t * t).sum() * (1.0 / t.data.size)

    return build, [a, b]


def test_gradient_soundness_random_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        build, leaves = _random_graph_value_and_leaves(rng)
        root = build()
        root.backward()
        grads = [leaf.grad.copy() for leaf in leaves]
        for leaf, ad in zip(leaves, grads):
            def value():
                with no_grad():
                    return float(build())
            fd = _finite_diff(value, leaf.data)
            assert _grad_close(ad, fd)


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert y._bwd is None and not y.requires_grad


# -- fused ops against the general tape ---------------------------------------------
# The fused ops must reproduce the general ops bit for bit: no tolerance.


def _leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _value_and_grads(root: Tensor, leaves: list[Tensor]) -> list[np.ndarray]:
    root.backward()
    out = [root.data] + [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    return out


@pytest.mark.parametrize("relu", [True, False])
def test_linear_matches_matmul_add_relu_bit_for_bit(relu):
    rng = np.random.default_rng(3)
    x, w, b = _leaf(rng, 97, 64), _leaf(rng, 64, 32), _leaf(rng, 32)
    upstream = rng.normal(size=(97, 32))  # non-uniform, so each gradient path counts

    fused = linear(x, w, b, relu=relu)
    general = x @ w + b
    if relu:
        general = general.relu()
        assert (fused.data == 0.0).any() and (fused.data > 0.0).any()
    assert np.array_equal(fused.data, general.data)
    got = _value_and_grads((fused * upstream).sum(), [x, w, b])
    want = _value_and_grads((general * upstream).sum(), [x, w, b])
    for g, e in zip(got, want):
        assert np.array_equal(g, e)


def test_linear_rejects_mismatched_shapes():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        linear(_leaf(rng, 3, 2), _leaf(rng, 3, 4), _leaf(rng, 4), relu=True)
    with pytest.raises(ValueError):
        linear(_leaf(rng, 3, 2), _leaf(rng, 2, 4), _leaf(rng, 3), relu=True)


def test_graph_forward_matches_general_ops_bit_for_bit():
    model = MlpModel.init([2, 64, 64, 64, 2], seed=7)
    x = Tensor(np.random.default_rng(4).normal(size=(193, 2)), requires_grad=True)
    upstream = np.random.default_rng(5).normal(size=(193, 2))
    leaves = [x, *model.parameters()]

    got = _value_and_grads((forward(model, x) * upstream).sum(), leaves)
    h = x
    for i, (w, b) in enumerate(model.layers):
        h = h @ w + b
        if i != len(model.layers) - 1:
            h = h.relu()
    want = _value_and_grads((h * upstream).sum(), leaves)
    for g, e in zip(got, want):
        assert np.array_equal(g, e)
    # the tape-free pair: the same logits, and the same parameter gradients
    acts = mlp_forward(model, x.data)
    assert np.array_equal(acts[-1], forward(model, x).data)
    mlp_backward(model, acts, upstream)
    for p, e in zip(model.parameters(), want[2:]):
        assert np.array_equal(p.grad, e)


def test_no_grad_forward_matches_graph_forward_bit_for_bit():
    model = MlpModel.init([2, 64, 64, 64, 2], seed=7)
    x = np.random.default_rng(4).normal(size=(193, 2))
    graph = forward(model, x)
    with no_grad():
        plain = forward(model, x)
    assert graph.requires_grad and not plain.requires_grad and plain._bwd is None
    assert np.array_equal(plain.data, graph.data)


def test_weighted_nll_matches_log_softmax_mul_sum_bit_for_bit():
    rng = np.random.default_rng(5)
    z = _leaf(rng, 9, 3)
    weights = rng.uniform(size=(9, 3)) / 9.0
    weights[2] = 0.0  # a masked-out row
    got = _value_and_grads(weighted_nll(z, weights) * 0.7, [z])
    want = _value_and_grads(-(log_softmax(z) * weights).sum() * 0.7, [z])
    for g, e in zip(got, want):
        assert np.array_equal(g, e)
    # an array with upstream weight 0.7 gives (value, gradient) in closed form
    value, grad = weighted_nll(z.data, weights, 0.7)
    assert value == -(log_softmax(z) * weights).sum().data and np.array_equal(grad, want[1])


def test_weighted_nll_rejects_non_finite_logits():
    with pytest.raises(ValueError):
        weighted_nll(Tensor(np.array([[np.inf, 0.0]]), requires_grad=True), np.ones((1, 2)))


def test_shared_gradient_array_gives_the_same_sgd_update_as_copies():
    """An add hands both operands one upstream array as their gradient: for
    (x + y).sum() a read-only broadcast view, for ((x + y) * s).sum() a
    writeable product. SGD with momentum must treat either exactly like two
    separate copies."""
    rng = np.random.default_rng(6)
    init = [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
    scale = rng.normal(size=(3, 4))

    def train(copy_grads: bool):
        x, y = (Tensor(a.copy(), requires_grad=True) for a in init)
        opt = OptimState.for_params([x, y], momentum=0.9)
        for k in range(4):
            root = (x + y).sum() if k % 2 == 0 else ((x + y) * scale).sum()
            root.backward()
            assert x.grad is y.grad
            assert x.grad.flags.writeable == (k % 2 == 1)
            if copy_grads:
                x.grad, y.grad = x.grad.copy(), y.grad.copy()
            sgd_step([x, y], opt, lr=0.1)
        return [x.data, y.data, *opt.velocity]

    for shared, copied in zip(train(False), train(True)):
        assert np.array_equal(shared, copied)


# -- optimizer -------------------------------------------------------------------


def test_sgd_single_step_no_momentum():
    p = Tensor(np.zeros(1), requires_grad=True)
    p.grad = np.ones(1)
    opt = OptimState.for_params([p], momentum=0.0)
    sgd_step([p], opt, lr=0.1)
    assert p.data[0] == pytest.approx(-0.1, abs=0)
    assert p.grad is None


def test_sgd_momentum_two_steps_hand_arithmetic():
    p = Tensor(np.zeros(1), requires_grad=True)
    opt = OptimState.for_params([p], momentum=0.9)
    p.grad = np.ones(1)
    sgd_step([p], opt, lr=1.0)
    p.grad = np.ones(1)
    sgd_step([p], opt, lr=1.0)
    # v1 = 1, theta1 = -1; v2 = 1.9, theta2 = -2.9
    assert p.data[0] == pytest.approx(-2.9, abs=1e-12)


def test_sgd_requires_grads():
    p = Tensor(np.zeros(1), requires_grad=True)
    opt = OptimState.for_params([p])
    with pytest.raises(ValueError):
        sgd_step([p], opt, lr=0.1)


def test_sgd_converges_on_quadratic_bowl():
    # minimize 0.5*(theta - a)^2; closed-form minimum at a
    a = np.array([1.7, -0.4])
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = OptimState.for_params([p], momentum=0.5)
    for _ in range(100):
        loss = ((p - a) * (p - a)).sum() * 0.5
        loss.backward()
        sgd_step([p], opt, lr=0.5)
    assert np.max(np.abs(p.data - a)) <= 1e-6


# -- cosine schedule ---------------------------------------------------------------


def test_cosine_lr_endpoints():
    assert cosine_lr(0.03, 0, 100) == pytest.approx(0.03, abs=0)
    assert cosine_lr(1.0, 100, 100) == pytest.approx(math.cos(7 * math.pi / 16), abs=1e-15)
    assert cosine_lr(1.0, 50, 100) == pytest.approx(math.cos(7 * math.pi / 32), abs=1e-15)


def test_cosine_lr_rejects_out_of_range():
    with pytest.raises(ValueError):
        cosine_lr(0.03, 101, 100)
    with pytest.raises(ValueError):
        cosine_lr(0.03, 0, 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=10_000))
def test_cosine_lr_monotone_and_positive(K, k):
    k = min(k, K)
    lr = cosine_lr(1.0, k, K)
    assert lr > 0
    if k > 0:
        assert lr <= cosine_lr(1.0, k - 1, K)


# -- parameter EMA -----------------------------------------------------------------


def test_ema_decay_zero_copies_params():
    model = MlpModel.init([2, 3, 2], seed=5)
    ema = ParamEma.from_model(model, decay=0.0)
    for p in model.parameters():
        p.data += 1.0
    ema_update(ema, model.parameters())
    for s, p in zip(ema.shadow, model.parameters()):
        assert np.array_equal(s, p.data)


def test_ema_geometric_closed_form():
    model = MlpModel.init([2, 3, 2], seed=6)
    m = 0.9
    ema = ParamEma.from_model(model, decay=m)
    shadow0 = [s.copy() for s in ema.shadow]
    for p in model.parameters():
        p.data += 2.0  # hold constant afterwards
    n = 25
    for _ in range(n):
        ema_update(ema, model.parameters())
    for s0, s, p in zip(shadow0, ema.shadow, model.parameters()):
        expected = p.data + m**n * (s0 - p.data)
        assert np.max(np.abs(s - expected)) <= 1e-12


def test_ema_matches_recurrence_replay():
    rng = np.random.default_rng(8)
    model = MlpModel.init([2, 4, 2], seed=9)
    ema = ParamEma.from_model(model, decay=0.99)
    replay = [s.copy() for s in ema.shadow]
    for _ in range(50):
        for p in model.parameters():
            p.data += rng.normal(size=p.data.shape) * 0.1
        ema_update(ema, model.parameters())
        replay = [0.99 * r + 0.01 * p.data for r, p in zip(replay, model.parameters())]
    for s, r in zip(ema.shadow, replay):
        assert np.max(np.abs(s - r)) <= 1e-12


def test_ema_model_wraps_shadow():
    model = MlpModel.init([2, 3, 2], seed=10)
    ema = ParamEma.from_model(model, decay=0.5)
    wrapped = ema_model(ema)
    x = np.random.default_rng(0).normal(size=(4, 2))
    assert np.allclose(forward(wrapped, x).data, forward(model, x).data, atol=1e-12)
    for p in model.parameters():
        p.data += 1.0
    # shadow unchanged until updated
    assert not np.allclose(forward(ema_model(ema), x).data, forward(model, x).data)


def test_ema_rejects_shape_drift():
    model = MlpModel.init([2, 3, 2], seed=11)
    ema = ParamEma.from_model(model)
    other = MlpModel.init([2, 4, 2], seed=11)
    with pytest.raises(ValueError):
        ema_update(ema, other.parameters())
