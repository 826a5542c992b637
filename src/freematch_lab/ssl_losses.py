"""The three training-objective terms: supervised cross-entropy on labeled
data, threshold-masked consistency loss on unlabeled data, and the class
fairness regularizers (none / uniform-prior / self-adaptive).

Each of the three heads takes arrays and ``g``, its weight in the total loss,
and returns ``(value, gradient of g * value)`` in closed form; the gradient is
None when the value is a constant. Only the strong branch gets a gradient;
weak-branch probabilities are constants. The self-adaptive fairness term is
the histogram-normalized cross-entropy between the EMA statistics ratio and
the masked batch ratio, implemented sign-literally:

    L_f = -H(SumNorm(p_local / hist), SumNorm(p_bar / h_bar))

with p_local, hist entering as detached constants and gradient flowing only
through p_bar. Zero entries of the histograms are floored at 1e-9 before
division (early iterations can have empty classes).

A class that no kept strong-branch argmax falls in drives SumNorm(p_bar /
h_bar) toward one-hot on it, so l_f spikes (two moons, seed 0: min -10.2
against a median of -0.693). USB's released code is recalled to zero that
reciprocal instead, which cannot be checked offline; the floor stays, as the
reference trace depends on it.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .adaptive_threshold import ThresholdState, mask
from .ndcore import weighted_nll

_HIST_FLOOR = 1e-9
_LOG_GUARD = 1e-12  # keeps log finite if soft mass underflows to exact zero


class FairnessVariant(str, Enum):
    NONE = "none"
    UNIFORM_PRIOR = "uniform_prior"
    SAF = "saf"


def supervised_loss(logits: np.ndarray, labels: np.ndarray, g=1.0):
    """Mean cross-entropy of softmax(logits) against one-hot labels."""
    labels = np.asarray(labels)
    B, C = logits.shape
    if labels.shape != (B,) or (labels < 0).any() or (labels >= C).any():
        raise ValueError("labels must be valid class ids, one per row")
    onehot = np.zeros((B, C))
    onehot[np.arange(B), labels] = 1.0 / B
    return weighted_nll(logits, onehot, g)


def consistency_loss(weak_probs: np.ndarray, strong_logits: np.ndarray, thresholds: np.ndarray, g=1.0):
    """Masked cross-entropy of strong predictions against weak hard labels.

    The denominator is the full batch size; masked-out samples contribute zero.
    """
    keep, hard = mask(weak_probs, thresholds)
    B, C = strong_logits.shape
    if weak_probs.shape != (B, C):
        raise ValueError("weak and strong batches must have identical shapes")
    if not keep.any():
        return 0.0, None
    weights = np.zeros((B, C))
    weights[np.arange(B), hard] = keep.astype(np.float64) / B
    return weighted_nll(strong_logits, weights, g)


def _sum_norm(x):
    return x / x.sum()


def fairness_loss(variant: FairnessVariant, state: ThresholdState, weak_probs: np.ndarray,
                  strong_probs: np.ndarray, thresholds: np.ndarray, g=1.0):
    """Class fairness term; 0 when disabled or nothing is masked in. Both
    variants are (log(r) * target).sum(): the uniform prior with r = p_bar and a
    uniform target, SAF with r = SumNorm(p_bar / h_bar). Value and gradient take
    the same floating-point operations as composing the autodiff tape's ops."""
    variant = FairnessVariant(variant)
    keep = None if variant is FairnessVariant.NONE else mask(weak_probs, thresholds)[0]
    if keep is None or not keep.any():
        return 0.0, None
    n_in = int(keep.sum())
    B, C = strong_probs.shape
    keep_col = keep.astype(np.float64)[:, None]
    uniform = variant is FairnessVariant.UNIFORM_PRIOR
    scale = 1.0 / (n_in if uniform else B)
    p_bar = (strong_probs * keep_col).sum(axis=0) * scale + _LOG_GUARD
    if uniform:
        target, r = np.full(C, 1.0 / C), p_bar
    else:
        # self-adaptive: normalize soft mass and hard counts per class
        h_bar = np.bincount(strong_probs.argmax(axis=1)[keep], minlength=C).astype(np.float64) / n_in
        target = _sum_norm(state.p_local / np.maximum(state.hist, _HIST_FLOOR))
        h_floor = np.maximum(h_bar, _HIST_FLOOR)
        ratio = p_bar / h_floor
        r = _sum_norm(ratio)

    d = g * target / r
    if not uniform:  # back through SumNorm and the division by h_floor
        s = ratio.sum()
        d = (d / s + (-d * ratio / (s * s)).sum()) / h_floor
    return (np.log(r) * target).sum(), d * scale * keep_col


def total_loss(l_s, l_u, l_f, w_u: float = 1.0, w_f: float = 0.0):
    """l_s + w_u*l_u + w_f*l_f, composed in-graph when given tensors."""
    for name, v in (("l_s", l_s), ("l_u", l_u), ("l_f", l_f)):
        if not np.isfinite(float(v)):
            raise ValueError(f"{name} is not finite")
    return l_s + w_u * l_u + w_f * l_f
