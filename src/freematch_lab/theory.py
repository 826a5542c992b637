"""The thresholded binary Gaussian mixture: its spec, a reference draw, the
closed-form pseudo-label distribution, a vectorized Monte-Carlo oracle,
analytic parameter sweeps that check the qualitative claims (utilization falls
as the threshold rises, unequal class spreads skew the pseudo-label balance,
and closer classes mask more samples), and `with_mc`, which adds one sweep
point's MC draw and its one reroll.

A sample x gets pseudo label +1 when its confidence s(x) clears tau, -1 when
it falls below 1-tau, and 0 (masked) inside the band. The band boundaries are
midpoint +- c with c = log(tau/(1-tau)) / beta, which gives the closed form

    P(pos)  = Phi((delta/2 - c)/sigma2)/2 + Phi((-delta/2 - c)/sigma1)/2
    P(neg)  = Phi((delta/2 - c)/sigma1)/2 + Phi((-delta/2 - c)/sigma2)/2
    P(mask) = 1 - P(pos) - P(neg)

with Phi the standard normal CDF, computed from erfc for tail accuracy.

The Monte-Carlo oracle draws the mixture one component at a time. The
number of +1 labels among n fair labels is one Binomial(n, 1/2) draw, and each
component's float32 standard normals z come from their own SFC64 stream,
drawn in blocks of MC_BLOCK into one buffer and counted against the
component's standardized band edges, so no sample's x is formed or kept and
the memory does not depend on n. The +1 component is counted on a helper
thread while the caller's thread counts the -1 component; NumPy releases the
GIL in the fill, so two free cores draw normals at once. Each stream is read
by one thread, so the counts depend only on (spec, n, seed). The draw has the
mixture's law, not `sample_mixture`'s bytes, and no Phi enters it, so it
stays independent of the closed form.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .synthdata import check_fields, is_finite_number, streams

# samples per Monte-Carlo block: small enough that a block's 64 KiB float32
# buffer stays in cache, large enough that the per-block Python overhead is small
MC_BLOCK = 2**14


@dataclass(frozen=True)
class MixtureSpec:
    """Binary mixture: X|Y=-1 ~ N(mu1, sigma1^2), X|Y=+1 ~ N(mu2, sigma2^2),
    Y uniform on {-1, +1}, with mu1 < mu2; beta is the confidence sharpness
    and tau the pseudo-labeling threshold."""

    mu1: float
    mu2: float
    sigma1: float = 1.0
    sigma2: float = 1.0
    beta: float = 1.0
    tau: float = 0.95

    def __post_init__(self):
        check_fields(type(self).__annotations__, vars(self), {})
        if not self.mu1 < self.mu2:
            raise ValueError(f"mu1 must be below mu2, got mu1={self.mu1!r}, mu2={self.mu2!r}")
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("sigmas must be positive")
        if not 0.5 < self.tau < 1.0:
            raise ValueError("tau must lie in (0.5, 1)")
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.mu1 + self.mu2)

    @property
    def delta(self) -> float:
        return self.mu2 - self.mu1


def sample_mixture(
    spec: MixtureSpec, n: int, seed: int | np.random.SeedSequence
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n samples (x, y) with y in {-1, +1} uniform and x | y Gaussian:
    n labels, then n standard normals z, from one generator, and x = mu +
    sigma * z with the mean and spread of class y."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n) * 2 - 1
    z = rng.standard_normal(n)
    return np.where(y == 1, spec.mu2 + spec.sigma2 * z, spec.mu1 + spec.sigma1 * z), y


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


def _float32_at_most(v: float) -> np.float32:
    """The largest float32 <= v (-inf and +inf included)."""
    with np.errstate(over="ignore"):
        f = np.float32(v)
    return np.nextafter(f, np.float32(-np.inf)) if float(f) > v else f


def _count_tails(rng: np.random.Generator, m: int, mu: float, sigma: float, lo: float, hi: float) -> tuple[int, int]:
    """(count of x > hi, count of x < lo) among m draws of x = mu + sigma * z,
    z float32 normals that `rng` makes MC_BLOCK at a time in one buffer. The
    edges (hi - mu) / sigma and (lo - mu) / sigma are rounded to float32 down
    and up, so z clears one exactly when its float64 value clears the float64
    edge; as float32 scalars they keep the comparison in float32 under both
    legacy value-based casting and NEP 50."""
    z_hi = _float32_at_most((hi - mu) / sigma)
    z_lo = -_float32_at_most((mu - lo) / sigma)  # the smallest float32 >= (lo - mu) / sigma
    n_hi = n_lo = 0
    buf = np.empty(min(MC_BLOCK, m), dtype=np.float32)
    for start in range(0, m, MC_BLOCK):
        z = rng.standard_normal(out=buf[: min(MC_BLOCK, m - start)], dtype=np.float32)
        n_hi += np.count_nonzero(z > z_hi)
        n_lo += np.count_nonzero(z < z_lo)
    return n_hi, n_lo


def mc_dist(spec: MixtureSpec, n: int, seed: int) -> McResult:
    """Empirical pseudo-label frequencies of n mixture draws, with binomial
    standard errors.

    From `streams(seed, 3, SFC64)`: the first draws how many of the n labels
    are +1, the second the -1 component's float32 normals and the third the
    +1 component's, which a helper thread counts while this thread counts the
    -1 component. The helper is joined before this returns or raises, and an
    exception it raises is raised here as itself.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = _band_edges(spec)
    labels, neg, pos = streams(seed, 3, np.random.SFC64)
    n_plus = int(labels.binomial(n, 0.5))
    plus = []  # the helper's counts, or the exception it raised

    def count_plus():
        try:
            plus.append(_count_tails(pos, n_plus, spec.mu2, spec.sigma2, lo, hi))
        except BaseException as exc:  # raised again by the caller after the join
            plus.append(exc)

    helper = threading.Thread(target=count_plus)
    helper.start()
    try:
        minus_hi, minus_lo = _count_tails(neg, n - n_plus, spec.mu1, spec.sigma1, lo, hi)
    finally:
        helper.join()
    if isinstance(plus[0], BaseException):
        raise plus[0]
    plus_hi, plus_lo = plus[0]
    n_pos, n_neg = plus_hi + minus_hi, plus_lo + minus_lo
    counts = np.array([n_pos, n_neg, n - n_pos - n_neg], dtype=np.int64)  # pos, neg, mask
    freqs = counts / n
    ses = np.sqrt(freqs * (1.0 - freqs) / n)
    dist = PseudoLabelDist(float(freqs[0]), float(freqs[1]), float(freqs[2]))
    return McResult(dist, float(ses[0]), float(ses[1]), float(ses[2]), n)


# -- sweeps ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    param: float
    spec: MixtureSpec
    dist: PseudoLabelDist  # analytic
    mc: McResult | None = None
    z: float | None = None  # mc_agreement_z of the kept draw
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
        if value <= 0:  # checked here to name the grid's value, not the means derived from it
            raise ValueError(f"delta must be positive, got {value!r}")
        mid = base.midpoint
        return replace(base, mu1=mid - value / 2.0, mu2=mid + value / 2.0)
    raise ValueError("varying must be one of 'tau', 'delta', 'beta'")


def sweep(base: MixtureSpec, varying: str, values: Sequence[float]) -> SweepResult:
    """Evaluate the analytic distribution along a monotone parameter grid.

    Every check of the grid is made here, before any row is returned: the
    values, their monotone order, `varying`, delta > 0 and each point's
    MixtureSpec. Returns per-point rows, each with its spec, plus
    monotonicity verdicts, checked exactly on the analytic values: the masked
    fraction rises with tau and with shrinking delta, falls with beta, and
    (for the tau sweep) the pseudo-label imbalance never decreases. The rows
    carry no MC draw; `with_mc` adds one.
    """
    if isinstance(values, str) or not np.iterable(values) or not all(map(is_finite_number, values)):
        raise ValueError(f"values must be a list of finite numbers, got {values!r}")
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError("need at least two grid points")
    ascending = all(b > a for a, b in zip(vals, vals[1:]))
    descending = all(b < a for a, b in zip(vals, vals[1:]))
    if not (ascending or descending):
        raise ValueError("grid must be strictly monotone")
    specs = [_spec_for(base, varying, v) for v in vals]
    rows = [SweepRow(v, spec, analytic_dist(spec)) for v, spec in zip(vals, specs)]

    # orient the series so the parameter increases
    ordered = rows if ascending else rows[::-1]
    masks = [r.dist.p_mask for r in ordered]
    imbs = [r.dist.imbalance for r in ordered]
    verdicts: dict[str, bool] = {}
    if varying == "tau":
        verdicts["p_mask_strictly_increasing_in_tau"] = all(b > a for a, b in zip(masks, masks[1:]))
        verdicts["imbalance_non_decreasing_in_tau"] = all(b >= a for a, b in zip(imbs, imbs[1:]))
    elif varying == "delta":
        verdicts["p_mask_strictly_decreasing_in_delta"] = all(b < a for a, b in zip(masks, masks[1:]))
    else:
        verdicts["p_mask_strictly_decreasing_in_beta"] = all(b < a for a, b in zip(masks, masks[1:]))
    return SweepResult(varying, rows, verdicts)


def with_mc(row: SweepRow, n: int, seed: int) -> SweepRow:
    """The row with an MC draw of n samples at `seed` and its z against the
    row's analytic distribution. A draw with z > 3 is drawn once more at
    seed + 7919 and the row marked `rerolled`; the redraw is kept whatever its z."""
    mc = mc_dist(row.spec, n, seed)
    z = mc_agreement_z(row.dist, mc)
    rerolled = z > 3.0
    if rerolled:
        # a 3-sigma excursion is expected a few times per thousand entries;
        # one deterministic reroll resolves statistical flukes
        mc = mc_dist(row.spec, n, seed + 7919)
        z = mc_agreement_z(row.dist, mc)
    return replace(row, mc=mc, z=z, rerolled=rerolled)
