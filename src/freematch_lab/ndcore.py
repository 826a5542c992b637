"""Dense float64 tensors with reverse-mode autodiff, a ReLU MLP, SGD with
momentum, cosine learning-rate decay, and a parameter-space EMA used for
evaluation.

Training records no graph: ``mlp_forward`` and ``mlp_backward`` do, op for op,
what ``forward``'s graph and its backward do. The define-by-run tape, where
``backward()`` on a scalar root fills ``.grad`` on every reachable leaf, is the
gradient tests' reference. Single-threaded mutation; values are shared read-only.

Gradients are never copied: a ``.grad`` array may be the very array another
tensor holds as its ``.grad`` (an add hands one upstream array to both
operands), or a read-only broadcast view (the backward of ``sum``). Treat
``.grad`` as read-only and never change it in place; accumulation always
builds a new array.

The MLP runs on two fused ops: ``linear`` (``x @ w + b``, optionally ReLU,
one graph node per layer) and ``weighted_nll`` (``-(log_softmax(z) * W).sum()``
as one node). Each performs the same floating-point operations, in the same
order, as the general ops it replaces, so results are bit-identical to
composing ``@``, ``+``, ``relu``, ``log_softmax`` and ``sum``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (weak-branch forwards)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


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

    Operations record parents and a backward closure while gradients are
    enabled and at least one operand requires them. Leaves created by the
    caller with ``requires_grad=True`` receive ``d(root)/d(leaf)`` after
    ``backward()`` runs on a scalar root.
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
        if _grad_enabled and any(p.requires_grad for p in parents):
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


def array_of(x) -> np.ndarray:
    """The values of a Tensor, or a plain array as it is."""
    return x.data if isinstance(x, Tensor) else x


def scalar_head(x, value, pullback, g):
    """A scalar loss of ``x`` in closed form: ``value``, and ``pullback(g)``, the
    gradient of ``g * value`` (None: a constant). For a Tensor, one graph node
    whose backward calls ``pullback``; for an array, ``(value, pullback(g))``."""
    if not isinstance(x, Tensor):
        return value, None if pullback is None else pullback(g)
    if pullback is None:
        return Tensor(value)
    return Tensor._make(value, (x,), lambda g: x._accum(pullback(g)))


def softmax(logits):
    """Row-stabilized softmax; accepts a Tensor (graph op) or a plain array."""
    if not isinstance(logits, Tensor):
        return _softmax_data(np.asarray(logits, dtype=np.float64))
    out_data = _softmax_data(logits.data)
    return Tensor._make(out_data, (logits,), lambda g: logits._accum(softmax_backward(out_data, g)))


def softmax_backward(probs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d/dlogits from softmax's output ``probs`` and upstream gradient ``g``."""
    return probs * (g - (g * probs).sum(axis=-1, keepdims=True))


def _softmax_data(z: np.ndarray) -> np.ndarray:
    """Row-stabilized softmax of a plain array; shared by both branches of
    ``softmax`` so a Tensor and its array give bit-identical values."""
    if not np.isfinite(z).all():
        raise ValueError("softmax requires finite inputs")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_data(z: np.ndarray) -> np.ndarray:
    """Row-stabilized log-softmax of a plain array; shared by the graph ops
    below so their values stay bit-identical."""
    if not np.isfinite(z).all():
        raise ValueError("log_softmax requires finite inputs")
    shifted = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def log_softmax(logits: Tensor) -> Tensor:
    """Row-stabilized log-softmax as a single graph op."""
    out_data = _log_softmax_data(logits.data)
    probs = np.exp(out_data)

    def bwd(g):
        if logits.requires_grad:
            logits._accum(g - probs * g.sum(axis=-1, keepdims=True))

    return Tensor._make(out_data, (logits,), bwd)


def weighted_nll(logits, weights: np.ndarray, g=1.0):
    """``-(log_softmax(logits) * weights).sum()`` as one ``scalar_head``, with
    the same operations in the same order; ``weights`` is a constant array."""
    weights = np.asarray(weights, dtype=np.float64)
    log_probs = _log_softmax_data(array_of(logits))

    def pullback(g):
        gw = -g * weights
        return gw - np.exp(log_probs) * gw.sum(axis=-1, keepdims=True)

    return scalar_head(logits, -(log_probs * weights).sum(), pullback, g)


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """``x @ w + b``, then ReLU if asked, as a single graph op. Bit-identical
    to ``(x @ w + b).relu()`` in value and gradients: the forward adds ``b``
    and clamps in place, and the backward masks by ``out > 0``, which holds
    exactly where the pre-activation is positive."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear dimension mismatch: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise ValueError(f"bias shape {b.data.shape} does not match weight {w.data.shape}")
    out_data = _linear_data(x.data, w.data, b.data, relu)

    def bwd(g):
        for t, grad in zip((x, w, b), _linear_backward(x.data, w.data, out_data, g, relu, x.requires_grad)):
            if t.requires_grad:
                t._accum(grad)

    return Tensor._make(out_data, (x, w, b), bwd)


def _linear_data(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    out = x @ w
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _linear_backward(x, w, out, g, relu: bool, need_x: bool):
    """(d/dx or None, d/dw, d/db) of ``linear``, given its output and upstream ``g``."""
    if relu:
        g = g * (out > 0.0)
    return (g @ w.T if need_x else None), x.T @ g, g.sum(axis=0)


# -- model ----------------------------------------------------------------------


@dataclass
class MlpModel:
    """Fully connected ReLU network. Forward yields raw logits; consumers
    apply softmax themselves so one forward serves both hard pseudo-label
    extraction and soft probabilities."""

    layers: list[tuple[Tensor, Tensor]]

    def __post_init__(self):
        for (w, b) in self.layers:
            if w.data.ndim != 2 or b.data.ndim != 1 or w.data.shape[1] != b.data.shape[0]:
                raise ValueError("layer weight/bias shapes are inconsistent")
        for (w0, _), (w1, _) in zip(self.layers, self.layers[1:]):
            if w0.data.shape[1] != w1.data.shape[0]:
                raise ValueError("consecutive layer dimensions do not chain")

    @classmethod
    def init(cls, dims: list[int], seed: int | np.random.Generator = 0) -> "MlpModel":
        """Xavier-uniform weights and zero biases from a seeded generator."""
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        layers = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w = Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True)
            b = Tensor(np.zeros(fan_out), requires_grad=True)
            layers.append((w, b))
        return cls(layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].data.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].data.shape[1]

    def parameters(self) -> list[Tensor]:
        return [t for pair in self.layers for t in pair]


def forward(model: MlpModel, x) -> Tensor:
    """Run the MLP on a [B, d] batch, returning [B, C] logits. Each layer is
    one ``linear`` node; under ``no_grad`` no graph is recorded."""
    h = as_tensor(x)
    if h.data.ndim != 2:
        raise ValueError("forward expects a 2-D batch")
    if h.data.shape[1] != model.in_dim:
        raise ValueError(
            f"input width {h.data.shape[1]} does not match model width {model.in_dim}"
        )
    last = len(model.layers) - 1
    for i, (w, b) in enumerate(model.layers):
        h = linear(h, w, b, relu=i != last)
    return h


def mlp_forward(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """``forward``'s values without a graph: the batch and every layer's
    output, logits last, as ``mlp_backward`` takes them."""
    acts = [np.asarray(x, dtype=np.float64)]
    for i, (w, b) in enumerate(model.layers):
        acts.append(_linear_data(acts[-1], w.data, b.data, i != len(model.layers) - 1))
    return acts


def mlp_backward(model: MlpModel, acts: list[np.ndarray], g: np.ndarray) -> None:
    """Add d(root)/d(parameter) into each parameter's ``.grad``, given
    ``mlp_forward``'s activations and ``g`` = d(root)/d(logits)."""
    last = len(model.layers) - 1
    for i in range(last, -1, -1):
        w, b = model.layers[i]
        g, grad_w, grad_b = _linear_backward(acts[i], w.data, acts[i + 1], g, i != last, i > 0)
        w._accum(grad_w)
        b._accum(grad_b)


# -- optimizer -------------------------------------------------------------------


@dataclass
class OptimState:
    """SGD-with-momentum state: one velocity buffer per parameter."""

    velocity: list[np.ndarray]
    momentum: float = 0.9
    k: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor], momentum: float = 0.9) -> "OptimState":
        return cls(velocity=[np.zeros_like(p.data) for p in params], momentum=momentum)


def sgd_step(params: list[Tensor], opt: OptimState, lr: float) -> None:
    """v <- momentum*v + g; theta <- theta - lr*v; grads cleared."""
    if len(params) != len(opt.velocity):
        raise ValueError("parameter count does not match optimizer state")
    for p, v in zip(params, opt.velocity):
        if p.grad is None:
            raise ValueError("sgd_step requires populated gradients")
        if p.grad.shape != v.shape:
            raise ValueError("gradient shape does not match velocity shape")
        v *= opt.momentum
        v += p.grad
        p.data -= lr * v
        p.grad = None


def cosine_lr(lr0: float, k: int, K: int) -> float:
    """lr0 * cos(7*pi*k / (16*K)); strictly decreasing in k, positive on [0, K]."""
    if K <= 0:
        raise ValueError("K must be positive")
    if not 0 <= k <= K:
        raise ValueError(f"step {k} outside [0, {K}]")
    return lr0 * math.cos(7.0 * math.pi * k / (16.0 * K))


# -- parameter EMA -----------------------------------------------------------------


@dataclass
class ParamEma:
    """Shadow copy of the parameters, smoothed with decay m per update."""

    shadow: list[np.ndarray]
    decay: float = 0.999

    @classmethod
    def from_model(cls, model: MlpModel, decay: float = 0.999) -> "ParamEma":
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        return cls(shadow=[p.data.copy() for p in model.parameters()], decay=decay)


def ema_update(ema: ParamEma, params: list[Tensor]) -> None:
    """shadow <- m*shadow + (1-m)*theta."""
    if len(params) != len(ema.shadow):
        raise ValueError("parameter count does not match EMA state")
    m = ema.decay
    for s, p in zip(ema.shadow, params):
        if s.shape != p.data.shape:
            raise ValueError("parameter shape drifted from EMA shadow")
        s *= m
        s += (1.0 - m) * p.data


def ema_model(ema: ParamEma) -> MlpModel:
    """Wrap the shadow weights in a model for inference."""
    if len(ema.shadow) % 2 != 0:
        raise ValueError("shadow list does not pair into (weight, bias) layers")
    layers = [
        (Tensor(w.copy()), Tensor(b.copy()))
        for w, b in zip(ema.shadow[0::2], ema.shadow[1::2])
    ]
    return MlpModel(layers)
