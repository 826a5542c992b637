"""The reference autodiff tape the gradient tests differentiate: graph leaves
for a model's parameters, graph forms of the MLP, `softmax` and `log_softmax`
over `ndcore.Tensor`, and one graph node for any loss head.

The training step runs `ndcore.mlp_forward`, the `ssl_losses` heads' closed
forms and `ndcore.mlp_backward` on plain arrays, and records no graph. A head
node's backward calls the same `src` head with its upstream gradient, so the
closed forms stay the only copy, and the graph forward is built from general
`Tensor` ops, not from the step's fused layers.
"""

import numpy as np

from freematch_lab import ndcore as nd
from freematch_lab.ndcore import Tensor


def leaves(model: nd.MlpModel) -> list[Tensor]:
    """One gradient-recording leaf per parameter, in `parameters()` order. Each
    leaf holds the parameter's view into `model.theta`, so an update to the
    model's vector is an update to the leaves."""
    return [Tensor(p, requires_grad=True) for p in model.parameters()]


def grad(params: list[Tensor]) -> np.ndarray:
    """The leaves' gradients as one vector, laid out like `MlpModel.theta`."""
    return np.concatenate([p.grad.ravel() for p in params])


def forward(params: list[Tensor], x) -> Tensor:
    """The MLP's logits on `leaves(model)` as a graph of general ops:
    `(h @ w + b).relu()` per hidden layer, `h @ w + b` for the last."""
    h = nd.as_tensor(x)
    last = len(params) // 2 - 1
    for i, (w, b) in enumerate(zip(params[0::2], params[1::2])):
        h = h @ w + b
        if i != last:
            h = h.relu()
    return h


def softmax(logits: Tensor) -> Tensor:
    """`ndcore.softmax` as one graph node."""
    probs = nd.softmax(logits.data)
    return Tensor._make(probs, (logits,), lambda g: logits._accum(nd.softmax_backward(probs, g)))


def log_softmax(logits: Tensor) -> Tensor:
    """Row-stabilized log-softmax as one graph node."""
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    probs = np.exp(out)
    return Tensor._make(out, (logits,), lambda g: logits._accum(g - probs * g.sum(axis=-1, keepdims=True)))


def head(loss, x: Tensor) -> Tensor:
    """`loss(array, g) -> (value, gradient of g * value)`, a `src` loss head
    with its other arguments bound, as one graph node on `x`. Its backward
    calls `loss` again with the upstream gradient; a None gradient (a constant
    value) adds nothing."""
    value, _ = loss(x.data, 1.0)

    def bwd(g):
        grad = loss(x.data, g)[1]
        if grad is not None:
            x._accum(grad)

    return Tensor._make(value, (x,), bwd)
