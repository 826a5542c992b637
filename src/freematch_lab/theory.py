"""Closed-form pseudo-label distribution for a thresholded binary Gaussian
mixture, a vectorized Monte-Carlo oracle, and parameter sweeps that check the
qualitative claims: utilization falls as the threshold rises, unequal class
spreads skew the pseudo-label balance, and closer classes mask more samples.

A sample x gets pseudo label +1 when its confidence s(x) clears tau, -1 when
it falls below 1-tau, and 0 (masked) inside the band. The band boundaries are
midpoint +- c with c = log(tau/(1-tau)) / beta, which gives the closed form

    P(pos)  = Phi((delta/2 - c)/sigma2)/2 + Phi((-delta/2 - c)/sigma1)/2
    P(neg)  = Phi((delta/2 - c)/sigma1)/2 + Phi((-delta/2 - c)/sigma2)/2
    P(mask) = 1 - P(pos) - P(neg)

with Phi the standard normal CDF, computed from erfc for tail accuracy.

The Monte-Carlo oracle streams its draws in blocks of MC_BLOCK samples and
counts each block as it goes, so its memory does not depend on n; the counts
are those of one n-sample `sample_mixture` draw. The labels and the normals
come from two independent streams, drawn on two threads: a helper thread
draws the next block's normals while this thread counts the current block.
With two free cores a draw takes about 60% of the serial time; on one CPU
the threads take turns and it costs what the serial draw did. The extra
memory is one block of normals in flight (512 KiB at MC_BLOCK).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

# sample_mixture stays bound here: perfbench's tracer wraps it on this module
from .synthdata import MixtureSpec, mixture_blocks, sample_mixture  # noqa: F401

# samples per Monte-Carlo block: small enough that a block's arrays stay in
# cache, large enough that the per-block Python overhead is negligible
MC_BLOCK = 2**16


def _phi_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class PseudoLabelDist:
    p_pos: float
    p_neg: float
    p_mask: float

    def __post_init__(self):
        for p in (self.p_pos, self.p_neg, self.p_mask):
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError("probabilities must lie in [0, 1]")
        if abs(self.p_pos + self.p_neg + self.p_mask - 1.0) > 1e-12:
            raise ValueError("distribution must sum to 1")

    @property
    def imbalance(self) -> float:
        return abs(self.p_pos - self.p_neg)


@dataclass(frozen=True)
class McResult:
    dist: PseudoLabelDist
    se_pos: float
    se_neg: float
    se_mask: float
    n: int


def confidence(x, spec: MixtureSpec):
    """Sigmoid confidence s(x) centered on the optimal decision boundary."""
    return 1.0 / (1.0 + np.exp(-spec.beta * (np.asarray(x, dtype=np.float64) - spec.midpoint)))


def _band_halfwidth(spec: MixtureSpec) -> float:
    return math.log(spec.tau / (1.0 - spec.tau)) / spec.beta


def _band_edges(spec: MixtureSpec) -> tuple[float, float]:
    """(lo, hi): a sample is labeled -1 below lo, +1 above hi, else masked."""
    c = _band_halfwidth(spec)
    return spec.midpoint - c, spec.midpoint + c


def assign_pseudo_batch(x: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    """Pseudo label per sample: +1, -1, or 0 (masked)."""
    lo, hi = _band_edges(spec)
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape, dtype=np.int8)
    out[x > hi] = 1
    out[x < lo] = -1
    return out


def analytic_dist(spec: MixtureSpec) -> PseudoLabelDist:
    """Exact pseudo-label distribution for the mixture."""
    c = _band_halfwidth(spec)
    half = 0.5 * spec.delta
    p_pos = 0.5 * _phi_cdf((half - c) / spec.sigma2) + 0.5 * _phi_cdf((-half - c) / spec.sigma1)
    p_neg = 0.5 * _phi_cdf((half - c) / spec.sigma1) + 0.5 * _phi_cdf((-half - c) / spec.sigma2)
    return PseudoLabelDist(p_pos, p_neg, 1.0 - p_pos - p_neg)


def mc_agreement_z(dist: PseudoLabelDist, mc: McResult) -> float:
    """Worst |analytic - empirical| over entries, in binomial standard errors.

    The error scale is floored with the analytic-parameter stderr and 1/n so
    entries in deep tails (empirical count 0) stay well defined.
    """
    worst = 0.0
    for a, m, se in (
        (dist.p_pos, mc.dist.p_pos, mc.se_pos),
        (dist.p_neg, mc.dist.p_neg, mc.se_neg),
        (dist.p_mask, mc.dist.p_mask, mc.se_mask),
    ):
        scale = max(se, math.sqrt(max(a * (1.0 - a), 0.0) / mc.n), 1.0 / mc.n)
        worst = max(worst, abs(a - m) / scale)
    return worst


def mc_dist(spec: MixtureSpec, n: int, seed: int) -> McResult:
    """Empirical pseudo-label frequencies with binomial standard errors.

    Draws the n samples of `sample_mixture` at a seed derived from `seed`,
    in blocks of MC_BLOCK, and counts the labels of each block as it goes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = _band_edges(spec)
    n_pos = n_neg = 0
    for x, _ in mixture_blocks(spec, n, np.random.SeedSequence(seed).spawn(1)[0], MC_BLOCK):
        n_pos += np.count_nonzero(x > hi)
        n_neg += np.count_nonzero(x < lo)
    counts = np.array([n_pos, n_neg, n - n_pos - n_neg], dtype=np.int64)  # pos, neg, mask
    freqs = counts / n
    ses = np.sqrt(freqs * (1.0 - freqs) / n)
    dist = PseudoLabelDist(float(freqs[0]), float(freqs[1]), float(freqs[2]))
    return McResult(dist, float(ses[0]), float(ses[1]), float(ses[2]), n)


# -- sweeps ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    param: float
    p_pos: float
    p_neg: float
    p_mask: float
    imbalance: float
    mc: McResult | None = None
    rerolled: bool = False  # the first MC draw had z > 3 and was redrawn once


@dataclass(frozen=True)
class SweepResult:
    varying: str
    rows: list[SweepRow]
    verdicts: dict[str, bool]


def _spec_for(base: MixtureSpec, varying: str, value: float) -> MixtureSpec:
    if varying == "tau":
        return replace(base, tau=value)
    if varying == "beta":
        return replace(base, beta=value)
    if varying == "delta":
        mid = base.midpoint
        return replace(base, mu1=mid - value / 2.0, mu2=mid + value / 2.0)
    raise ValueError("varying must be one of 'tau', 'delta', 'beta'")


def sweep(
    base: MixtureSpec,
    varying: str,
    values: Sequence[float],
    mc_samples: int = 0,
    seed: int = 0,
) -> SweepResult:
    """Evaluate the analytic distribution along a monotone parameter grid.

    Returns per-point rows plus monotonicity verdicts, checked exactly on the
    analytic values: the masked fraction rises with tau and with shrinking
    delta, falls with beta, and (for the tau sweep) the pseudo-label imbalance
    never decreases. With mc_samples > 0 each row also carries an MC draw; a
    point whose first draw disagrees by z > 3 is drawn once more on a new seed
    and marked `rerolled`.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError("need at least two grid points")
    ascending = all(b > a for a, b in zip(vals, vals[1:]))
    descending = all(b < a for a, b in zip(vals, vals[1:]))
    if not (ascending or descending):
        raise ValueError("grid must be strictly monotone")

    rows = []
    for i, v in enumerate(vals):
        spec = _spec_for(base, varying, v)
        d = analytic_dist(spec)
        mc = None
        rerolled = False
        if mc_samples > 0:
            mc = mc_dist(spec, mc_samples, seed=seed + i)
            rerolled = mc_agreement_z(d, mc) > 3.0
            if rerolled:
                # a 3-sigma excursion is expected a few times per thousand
                # entries; one deterministic reroll resolves statistical flukes
                mc = mc_dist(spec, mc_samples, seed=seed + i + 7919)
        rows.append(SweepRow(v, d.p_pos, d.p_neg, d.p_mask, d.imbalance, mc, rerolled))

    # orient the series so the parameter increases
    ordered = rows if ascending else rows[::-1]
    masks = [r.p_mask for r in ordered]
    imbs = [r.imbalance for r in ordered]
    verdicts: dict[str, bool] = {}
    if varying == "tau":
        verdicts["p_mask_strictly_increasing_in_tau"] = all(b > a for a, b in zip(masks, masks[1:]))
        verdicts["imbalance_non_decreasing_in_tau"] = all(b >= a for a, b in zip(imbs, imbs[1:]))
    elif varying == "delta":
        verdicts["p_mask_strictly_decreasing_in_delta"] = all(b < a for a, b in zip(masks, masks[1:]))
    else:
        verdicts["p_mask_strictly_decreasing_in_beta"] = all(b < a for a, b in zip(masks, masks[1:]))
    return SweepResult(varying, rows, verdicts)
