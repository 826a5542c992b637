"""The three training-objective terms: supervised cross-entropy on labeled
data, threshold-masked consistency loss on unlabeled data, and the class
fairness regularizers (none / uniform-prior / self-adaptive).

Weak-branch probabilities enter as plain arrays so no gradient can flow
through them; only the strong branch participates in backward. The
self-adaptive fairness term is the histogram-normalized cross-entropy
between the EMA statistics ratio and the masked batch ratio, implemented
sign-literally:

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
from .ndcore import Tensor, as_tensor, weighted_nll

_HIST_FLOOR = 1e-9
_LOG_GUARD = 1e-12  # keeps log finite if soft mass underflows to exact zero


class FairnessVariant(str, Enum):
    NONE = "none"
    UNIFORM_PRIOR = "uniform_prior"
    SAF = "saf"


def supervised_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(logits) against one-hot labels."""
    labels = np.asarray(labels)
    B, C = logits.data.shape
    if labels.shape != (B,) or (labels < 0).any() or (labels >= C).any():
        raise ValueError("labels must be valid class ids, one per row")
    onehot = np.zeros((B, C))
    onehot[np.arange(B), labels] = 1.0 / B
    return weighted_nll(logits, onehot)


def consistency_loss(
    weak_probs: np.ndarray, strong_logits: Tensor, thresholds: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """Masked cross-entropy of strong predictions against weak hard labels.

    The denominator is the full batch size; masked-out samples contribute
    zero. Returns the scalar loss and the inclusion mask.
    """
    keep, hard = mask(weak_probs, thresholds)
    B, C = strong_logits.data.shape
    if weak_probs.shape != (B, C):
        raise ValueError("weak and strong batches must have identical shapes")
    if not keep.any():
        return as_tensor(0.0), keep
    weights = np.zeros((B, C))
    weights[np.arange(B), hard] = keep.astype(np.float64) / B
    return weighted_nll(strong_logits, weights), keep


def _sum_norm(x):
    return x / x.sum()


def fairness_loss(
    variant: FairnessVariant,
    state: ThresholdState,
    weak_probs: np.ndarray,
    strong_probs: Tensor,
    thresholds: np.ndarray,
) -> Tensor:
    """Class fairness term; returns 0 when disabled or nothing is masked in."""
    variant = FairnessVariant(variant)
    if variant is FairnessVariant.NONE:
        return as_tensor(0.0)
    keep, _ = mask(weak_probs, thresholds)
    n_in = int(keep.sum())
    if n_in == 0:
        return as_tensor(0.0)
    B, C = strong_probs.data.shape
    keep_col = keep.astype(np.float64)[:, None]

    if variant is FairnessVariant.UNIFORM_PRIOR:
        p_bar = (strong_probs * keep_col).sum(axis=0) * (1.0 / n_in) + _LOG_GUARD
        return (p_bar.log() * np.full(C, 1.0 / C)).sum()

    # self-adaptive: normalize soft mass and hard counts per class
    p_bar = (strong_probs * keep_col).sum(axis=0) * (1.0 / B) + _LOG_GUARD
    strong_hard = strong_probs.data.argmax(axis=1)
    h_bar = np.bincount(strong_hard[keep], minlength=C).astype(np.float64) / n_in
    target = _sum_norm(state.p_local / np.maximum(state.hist, _HIST_FLOOR))
    batch_ratio = _sum_norm(p_bar / np.maximum(h_bar, _HIST_FLOOR))
    return (batch_ratio.log() * target).sum()


def total_loss(l_s, l_u, l_f, w_u: float = 1.0, w_f: float = 0.0):
    """l_s + w_u*l_u + w_f*l_f, composed in-graph when given tensors."""
    for name, v in (("l_s", l_s), ("l_u", l_u), ("l_f", l_f)):
        if not np.isfinite(float(v)):
            raise ValueError(f"{name} is not finite")
    return l_s + w_u * l_u + w_f * l_f
