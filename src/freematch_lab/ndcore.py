"""A ReLU MLP on float64 arrays, trained with closed-form gradients: SGD with
momentum, cosine learning-rate decay, and a parameter-space EMA used for
evaluation. A model's parameters live in one float64 vector, ``theta``, whose
(weight, bias) views are its layers; gradients and the SGD velocity are
plain vectors of the same layout, which the caller holds. The EMA is a second
model: ``ema_update`` moves its ``theta`` toward the trained model's.

``mlp_forward`` keeps every layer's output, and ``mlp_backward`` carries the
logit gradient back through them, writing each layer's gradients in place
into its views of one gradient vector, which ``sgd_step`` applies; ``forward``
runs the same layers keeping only the current one, for inference.

``Tensor`` is a small define-by-run autodiff tape, the gradient tests'
reference: ``backward()`` on a scalar root fills ``.grad`` on every reachable
leaf. Single-threaded mutation; values are shared read-only. A ``.grad`` array
may be the very array another tensor holds as its ``.grad`` (an add hands one
upstream array to both operands), or a read-only broadcast view (the backward
of ``sum``). Treat ``.grad`` as read-only and never change it in place;
accumulation always builds a new array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array plus an optional gradient accumulator.

    Operations record parents and a backward closure when at least one
    operand requires gradients. Leaves created by the caller with
    ``requires_grad=True`` receive ``d(root)/d(leaf)`` after ``backward()``
    runs on a scalar root.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._bwd = None

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accum(self, g: np.ndarray) -> None:
        # g may be shared or read-only (see the module docstring): store it
        # as is, and accumulate out of place
        self.grad = g if self.grad is None else self.grad + g

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], bwd) -> "Tensor":
        if any(p.requires_grad for p in parents):
            out = Tensor(data, requires_grad=True)
            out._parents = parents
            out._bwd = bwd
            return out
        return Tensor(data)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return Tensor._make(out_data, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        def bwd(g):
            if self.requires_grad:
                self._accum(-g)

        return Tensor._make(-self.data, (self,), bwd)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out_data = self.data / other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accum(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
                )

        return Tensor._make(out_data, (self, other), bwd)

    def __matmul__(self, other):
        other = as_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul expects 2-D operands")
        if self.data.shape[1] != other.data.shape[0]:
            raise ValueError(
                f"matmul dimension mismatch: {self.data.shape} @ {other.data.shape}"
            )
        out_data = self.data @ other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(g @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ g)

        return Tensor._make(out_data, (self, other), bwd)

    # -- elementwise nonlinearities -------------------------------------------

    def relu(self):
        out_data = np.maximum(self.data, 0.0)

        def bwd(g):
            if self.requires_grad:
                self._accum(g * (self.data > 0.0))

        return Tensor._make(out_data, (self,), bwd)

    def exp(self):
        out_data = np.exp(self.data)

        def bwd(g):
            if self.requires_grad:
                self._accum(g * out_data)

        return Tensor._make(out_data, (self,), bwd)

    def log(self):
        out_data = np.log(self.data)

        def bwd(g):
            if self.requires_grad:
                self._accum(g / self.data)

        return Tensor._make(out_data, (self,), bwd)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if not self.requires_grad:
                return
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), bwd)

    # -- backward ---------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar root")
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                # leaves have no backward to run, so they never enter the order
                if p._bwd is not None and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` as a fold of ``np.maximum`` over the last axis, in
    fewer calls on a batch with few classes. Max is exact in any order, so only
    the sign of a zero maximum can differ where NumPy's reduction takes another
    order (seen at C >= 9)."""
    m = x[..., 0]
    for j in range(1, x.shape[-1]):
        m = np.maximum(m, x[..., j])
    return m


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-stabilized softmax."""
    if not np.isfinite(logits).all():
        raise ValueError("softmax requires finite inputs")
    e = np.exp(logits - row_max(logits)[..., None])
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(probs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d/dlogits from softmax's output ``probs`` and upstream gradient ``g``."""
    return probs * (g - (g * probs).sum(axis=-1, keepdims=True))


def weighted_nll(logits: np.ndarray, weights: np.ndarray, g=1.0):
    """``-(log_softmax(logits) * weights).sum()`` for a constant ``weights``
    array, and the gradient of ``g`` times it with respect to ``logits``."""
    if not np.isfinite(logits).all():
        raise ValueError("weighted_nll requires finite logits")
    shifted = logits - row_max(logits)[..., None]
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    gw = -g * weights
    return -(log_probs * weights).sum(), gw - np.exp(log_probs) * gw.sum(axis=-1, keepdims=True)


def _linear_data(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    out = x @ w
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _linear_backward(x, w, out, g, relu: bool, need_x: bool, dw: np.ndarray, db: np.ndarray):
    """d/dx (None unless ``need_x``) of ``_linear_data`` given its output and
    upstream ``g``, writing d/dw and d/db into ``dw`` and ``db``. Under ReLU,
    ``g`` is masked in place by ``out > 0`` (exactly where the pre-activation
    is positive), so the caller hands it over."""
    if relu:
        np.multiply(g, out > 0.0, out=g)
    np.matmul(x.T, g, out=dw)
    np.add.reduce(g, axis=0, out=db)
    return g @ w.T if need_x else None


def _split(flat: np.ndarray, dims: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into a vector laid out like ``MlpModel.theta``."""
    layers, i = [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        j = i + fan_in * fan_out
        layers.append((flat[i:j].reshape(fan_in, fan_out), flat[j : j + fan_out]))
        i = j + fan_out
    return layers


# -- model ----------------------------------------------------------------------


@dataclass
class MlpModel:
    """Fully connected ReLU network. Forward yields raw logits; consumers
    apply softmax themselves so one forward serves both hard pseudo-label
    extraction and soft probabilities. The layers are copied into one vector
    ``theta``, in ``parameters()`` order, and ``layers`` become views into it;
    a copied or unpickled model gets its own ``theta``."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        for (w, b) in self.layers:
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError("layer weight/bias shapes are inconsistent")
        for (w0, _), (w1, _) in zip(self.layers, self.layers[1:]):
            if w0.shape[1] != w1.shape[0]:
                raise ValueError("consecutive layer dimensions do not chain")
        self.dims = [self.layers[0][0].shape[0]] + [w.shape[1] for w, _ in self.layers]
        self.theta = np.concatenate([a.ravel() for pair in self.layers for a in pair], dtype=np.float64)
        self.layers = _split(self.theta, self.dims)

    def __reduce__(self):
        return type(self), (self.layers,)

    @classmethod
    def init(cls, dims: list[int], seed: int | np.random.Generator = 0) -> "MlpModel":
        """Xavier-uniform weights and zero biases from a seeded generator."""
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        rng = np.random.default_rng(seed)  # a Generator passes through unchanged
        layers = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            layers.append((rng.uniform(-limit, limit, size=(fan_in, fan_out)), np.zeros(fan_out)))
        return cls(layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[0]

    def parameters(self) -> list[np.ndarray]:
        return [a for pair in self.layers for a in pair]


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """The MLP's [B, C] logits for a [B, d] batch, keeping only the current
    layer's output."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError("forward expects a 2-D batch")
    if h.shape[1] != model.in_dim:
        raise ValueError(f"input width {h.shape[1]} does not match model width {model.in_dim}")
    for i, (w, b) in enumerate(model.layers):
        h = _linear_data(h, w, b, i != len(model.layers) - 1)
    return h


def mlp_forward(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """``forward``'s layers: the batch and every layer's output, logits last,
    as ``mlp_backward`` takes them."""
    acts = [np.asarray(x, dtype=np.float64)]
    for i, (w, b) in enumerate(model.layers):
        acts.append(_linear_data(acts[-1], w, b, i != len(model.layers) - 1))
    return acts


def mlp_backward(model: MlpModel, acts: list[np.ndarray], g: np.ndarray) -> np.ndarray:
    """d(root)/d(theta), laid out like ``model.theta``, given ``mlp_forward``'s
    activations and ``g`` = d(root)/d(logits), which is not changed."""
    grad = np.empty_like(model.theta)
    last = len(model.layers) - 1
    for i, (dw, db) in reversed(list(enumerate(_split(grad, model.dims)))):
        g = _linear_backward(acts[i], model.layers[i][0], acts[i + 1], g, i != last, i > 0, dw, db)
    return grad


# -- optimizer -------------------------------------------------------------------


def sgd_step(theta: np.ndarray, grad: np.ndarray, velocity: np.ndarray, momentum: float, lr: float) -> None:
    """v <- momentum*v + g; theta <- theta - lr*v, both in place. Every shape is
    checked before anything changes."""
    if theta.shape != velocity.shape or grad.shape != velocity.shape:
        raise ValueError("parameter, gradient and velocity vectors must have one shape")
    velocity *= momentum
    velocity += grad
    theta -= lr * velocity


def cosine_lr(lr0: float, k: int, K: int) -> float:
    """lr0 * cos(7*pi*k / (16*K)); strictly decreasing in k, positive on [0, K]."""
    if K <= 0:
        raise ValueError("K must be positive")
    if not 0 <= k <= K:
        raise ValueError(f"step {k} outside [0, {K}]")
    return lr0 * math.cos(7.0 * math.pi * k / (16.0 * K))


# -- parameter EMA -----------------------------------------------------------------


def ema_update(ema: MlpModel, theta: np.ndarray, decay: float) -> None:
    """ema.theta <- decay*ema.theta + (1-decay)*theta, in place, so the EMA
    model's layers, views into its theta, follow. The shape is checked before
    anything changes."""
    if theta.shape != ema.theta.shape:
        raise ValueError("parameter vector does not match the EMA model's")
    ema.theta *= decay
    ema.theta += (1.0 - decay) * theta
