import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tape

from freematch_lab.ndcore import (
    MlpModel,
    Tensor,
    _linear_backward,
    _linear_data,
    cosine_lr,
    ema_update,
    forward,
    mlp_backward,
    mlp_forward,
    row_max,
    sgd_step,
    softmax,
    weighted_nll,
)


# -- forward -------------------------------------------------------------------


def test_forward_identity_single_layer():
    model = MlpModel([(np.eye(2), np.zeros(2))])
    out = forward(model, np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[1.0, 2.0]])


def test_forward_zero_weights_yields_bias():
    b = np.array([0.3, -1.2, 4.0])
    model = MlpModel([(np.zeros((2, 3)), b)])
    out = forward(model, np.random.default_rng(0).normal(size=(5, 2)))
    assert np.allclose(out, np.tile(b, (5, 1)), atol=0)


def test_forward_matches_straight_line_recomputation():
    # independent oracle: plain numpy matmul chain, no fused layers
    rng = np.random.default_rng(42)
    model = MlpModel.init([2, 64, 64, 64, 2], seed=7)
    x = rng.normal(size=(5, 2))
    got = forward(model, x)

    h = x
    mats = model.layers
    for i, (w, b) in enumerate(mats):
        h = h @ w + b
        if i != len(mats) - 1:
            h = np.maximum(h, 0.0)
    assert np.max(np.abs(got - h)) <= 1e-12


def test_layers_are_views_into_theta():
    """One float64 vector holds every parameter in parameters() order; the
    constructor copies the given layers, and a copied or unpickled model gets
    its own vector."""
    w, b = np.arange(6.0).reshape(2, 3), np.ones(3)
    model = MlpModel([(w, b), (np.full((3, 2), 2.0), np.zeros(2))])
    assert model.theta.shape == (6 + 3 + 6 + 2,) and model.theta.dtype == np.float64
    assert np.array_equal(model.theta, np.concatenate([p.ravel() for p in model.parameters()]))
    assert all(np.shares_memory(p, model.theta) for p in model.parameters())
    assert not np.shares_memory(w, model.theta)
    model.theta[:6] += 1.0
    assert np.array_equal(model.layers[0][0], w + 1.0)
    for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert np.array_equal(clone.theta, model.theta) and not np.shares_memory(clone.theta, model.theta)
        assert all(np.shares_memory(p, clone.theta) for p in clone.parameters())


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


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(lambda C: st.lists(
    st.lists(st.one_of(_SPECIAL, st.floats(min_value=-3, max_value=3)), min_size=C, max_size=C),
    min_size=1, max_size=16)))
def test_row_max_equals_the_reduction(rows):
    """The values of x.max(axis=1), with ties, signed zeros, infinities and NaN.
    `==` does not tell -0.0 from 0.0: the sign of a zero maximum depends on the
    order of NumPy's reduction (see row_max)."""
    x = np.array(rows)
    got = row_max(x)
    assert got.shape == (len(rows),)
    assert np.array_equal(got, x.max(axis=1), equal_nan=True)


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
    loss = -(tape.log_softmax(z) * onehot).sum()
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

    params = tape.leaves(model)

    def loss_value() -> float:
        return float(-(tape.log_softmax(tape.forward(params, x)) * onehot).sum())

    loss = -(tape.log_softmax(tape.forward(params, x)) * onehot).sum()
    loss.backward()
    for p in params:
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
            t = tape.softmax(t)
        elif op == 3:
            t = tape.log_softmax(t) * 0.1
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
            fd = _finite_diff(lambda: float(build()), leaf.data)
            assert _grad_close(ad, fd)


# -- the training step's ops against the general tape ---------------------------------
# The fused layers and closed forms must reproduce the general ops bit for bit:
# no tolerance.


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
    """One fused layer, the unit mlp_forward/mlp_backward chain, including the
    input gradient that only hidden layers pass down."""
    rng = np.random.default_rng(3)
    x, w, b = _leaf(rng, 97, 64), _leaf(rng, 64, 32), _leaf(rng, 32)
    upstream = rng.normal(size=(97, 32))  # non-uniform, so each gradient path counts

    fused = _linear_data(x.data, w.data, b.data, relu)
    general = x @ w + b
    if relu:
        general = general.relu()
        assert (fused == 0.0).any() and (fused > 0.0).any()
    assert np.array_equal(fused, general.data)
    dw, db = np.empty_like(w.data), np.empty_like(b.data)
    # under ReLU the upstream gradient is masked in place: hand over a copy
    gx = _linear_backward(x.data, w.data, fused, upstream.copy(), relu, True, dw, db)
    want = _value_and_grads((general * upstream).sum(), [x, w, b])[1:]
    for g, e in zip((gx, dw, db), want):
        assert np.array_equal(g, e)
    assert _linear_backward(x.data, w.data, fused, upstream.copy(), relu, False, dw, db) is None


def test_graph_forward_matches_general_ops_bit_for_bit():
    """mlp_forward and mlp_backward, the training step's layers, give the
    general-op graph's logits, and its parameter gradients as one vector laid
    out like theta; the upstream gradient is left as it was."""
    model = MlpModel.init([2, 64, 64, 64, 2], seed=7)
    x = np.random.default_rng(4).normal(size=(193, 2))
    upstream = np.random.default_rng(5).normal(size=(193, 2))  # non-uniform, so each gradient path counts
    params = tape.leaves(model)
    graph = tape.forward(params, x)
    want = _value_and_grads((graph * upstream).sum(), params)
    acts = mlp_forward(model, x)
    assert all((a == 0.0).any() and (a > 0.0).any() for a in acts[1:-1])  # every ReLU clamps some units
    assert np.array_equal(acts[-1], graph.data)
    g = upstream.copy()
    grad = mlp_backward(model, acts, g)
    assert np.array_equal(g, upstream)
    assert grad.shape == model.theta.shape
    assert np.array_equal(grad, np.concatenate([e.ravel() for e in want[1:]]))


def test_no_grad_forward_matches_graph_forward_bit_for_bit():
    """forward, which records no graph and keeps one layer at a time."""
    model = MlpModel.init([2, 64, 64, 64, 2], seed=7)
    x = np.random.default_rng(4).normal(size=(193, 2))
    assert np.array_equal(forward(model, x), tape.forward(tape.leaves(model), x).data)


def test_weighted_nll_matches_log_softmax_mul_sum_bit_for_bit():
    rng = np.random.default_rng(5)
    z = _leaf(rng, 9, 3)
    weights = rng.uniform(size=(9, 3)) / 9.0
    weights[2] = 0.0  # a masked-out row
    got = _value_and_grads(tape.head(lambda a, g: weighted_nll(a, weights, g), z) * 0.7, [z])
    want = _value_and_grads(-(tape.log_softmax(z) * weights).sum() * 0.7, [z])
    for g, e in zip(got, want):
        assert np.array_equal(g, e)
    # with upstream weight 0.7: (value, gradient) in closed form
    value, grad = weighted_nll(z.data, weights, 0.7)
    assert value == -(tape.log_softmax(z) * weights).sum().data and np.array_equal(grad, want[1])


def test_weighted_nll_rejects_non_finite_logits():
    with pytest.raises(ValueError):
        weighted_nll(np.array([[np.inf, 0.0]]), np.ones((1, 2)))


def test_shared_gradient_array_gives_the_same_sgd_update_as_copies():
    """The gradient handed to SGD may be the very array the tape holds as the
    parameter leaf's .grad: for x.sum() a read-only broadcast view, for
    (x * s).sum() a writeable product. SGD with momentum must treat either
    exactly like a separate copy, and change no gradient it is handed."""
    rng = np.random.default_rng(6)
    init = rng.normal(size=12)
    scale = rng.normal(size=12)

    def train(copy_grads: bool):
        theta = init.copy()
        x = Tensor(theta, requires_grad=True)
        assert x.data is theta
        velocity = np.zeros_like(theta)
        for k in range(4):
            root = x.sum() if k % 2 == 0 else (x * scale).sum()
            root.backward()
            assert x.grad.flags.writeable == (k % 2 == 1)
            grad = x.grad.copy() if copy_grads else x.grad
            before = grad.copy()
            sgd_step(theta, grad, velocity, 0.9, lr=0.1)
            assert np.array_equal(grad, before)
            x.grad = None
        return [theta, velocity]

    for shared, copied in zip(train(False), train(True)):
        assert np.array_equal(shared, copied)


# -- optimizer -------------------------------------------------------------------


def test_sgd_single_step_no_momentum():
    p, g = np.zeros(1), np.ones(1)
    sgd_step(p, g, np.zeros(1), 0.0, lr=0.1)
    assert p[0] == pytest.approx(-0.1, abs=0)
    assert g[0] == 1.0  # the gradient is read, not consumed


def test_sgd_momentum_two_steps_hand_arithmetic():
    p = np.zeros(1)
    velocity = np.zeros(1)
    sgd_step(p, np.ones(1), velocity, 0.9, lr=1.0)
    sgd_step(p, np.ones(1), velocity, 0.9, lr=1.0)
    # v1 = 1, theta1 = -1; v2 = 1.9, theta2 = -2.9
    assert p[0] == pytest.approx(-2.9, abs=1e-12)


def test_sgd_requires_grads():
    """One gradient vector of the parameter vector's shape, and parameter and
    velocity vectors of one shape; a rejected step changes nothing."""
    model = MlpModel.init([2, 3], seed=0)
    theta = model.theta
    before = theta.copy()
    n = theta.size
    velocity = np.full(n, 0.5)
    for grad in (np.ones(n - 3), np.ones(n + 1), np.ones((n, 1)), np.ones((2, 3))):
        with pytest.raises(ValueError):
            sgd_step(theta, grad, velocity, 0.9, lr=0.1)
    with pytest.raises(ValueError):
        sgd_step(theta[:-1], np.ones(n - 1), velocity, 0.9, lr=0.1)
    short_velocity = np.full(n - 1, 0.5)
    with pytest.raises(ValueError):
        sgd_step(theta, np.ones(n), short_velocity, 0.9, lr=0.1)
    assert np.array_equal(theta, before) and (velocity == 0.5).all() and (short_velocity == 0.5).all()


def test_sgd_converges_on_quadratic_bowl():
    # minimize 0.5*(theta - a)^2; closed-form minimum at a
    a = np.array([1.7, -0.4])
    p = Tensor(np.zeros(2), requires_grad=True)
    velocity = np.zeros(2)
    for _ in range(100):
        loss = ((p - a) * (p - a)).sum() * 0.5
        loss.backward()
        sgd_step(p.data, p.grad, velocity, 0.5, lr=0.5)
        p.grad = None
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
    ema = MlpModel(model.layers)
    for p in model.parameters():
        p += 1.0
    ema_update(ema, model.theta, 0.0)
    assert np.array_equal(ema.theta, model.theta)


def test_ema_geometric_closed_form():
    model = MlpModel.init([2, 3, 2], seed=6)
    m = 0.9
    ema = MlpModel(model.layers)
    theta0 = ema.theta.copy()
    for p in model.parameters():
        p += 2.0  # hold constant afterwards
    n = 25
    for _ in range(n):
        ema_update(ema, model.theta, m)
    expected = model.theta + m**n * (theta0 - model.theta)
    assert np.max(np.abs(ema.theta - expected)) <= 1e-12


def test_ema_matches_recurrence_replay():
    rng = np.random.default_rng(8)
    model = MlpModel.init([2, 4, 2], seed=9)
    ema = MlpModel(model.layers)
    replay = [p.copy() for p in model.parameters()]
    for _ in range(50):
        for p in model.parameters():
            p += rng.normal(size=p.shape) * 0.1
        ema_update(ema, model.theta, 0.99)
        replay = [0.99 * r + 0.01 * p for r, p in zip(replay, model.parameters())]
    assert np.max(np.abs(ema.theta - np.concatenate([r.ravel() for r in replay]))) <= 1e-12


def test_ema_model_keeps_its_forward_until_updated():
    model = MlpModel.init([2, 3, 2], seed=10)
    ema = MlpModel(model.layers)
    x = np.random.default_rng(0).normal(size=(4, 2))
    assert np.allclose(forward(ema, x), forward(model, x), atol=1e-12)
    for p in model.parameters():
        p += 1.0
    # the EMA model holds its own theta, unchanged until updated
    assert not np.allclose(forward(ema, x), forward(model, x))


def test_ema_rejects_shape_drift():
    """A parameter vector of another length is rejected before the EMA model
    changes."""
    model = MlpModel.init([2, 3, 2], seed=11)
    ema = MlpModel(model.layers)
    theta = ema.theta.copy()
    other = MlpModel.init([2, 4, 2], seed=11)
    for drifted in (other.theta, model.theta[:-1], model.theta.reshape(1, -1)):
        with pytest.raises(ValueError):
            ema_update(ema, drifted, 0.999)
    assert np.array_equal(ema.theta, theta)
