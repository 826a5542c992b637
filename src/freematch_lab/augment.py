"""Weak and strong stochastic augmentations for 2-D point data.

Weak jitter is small relative to the inter-arc gap of the default moon
geometry so weak views preserve labels; strong views add per-coordinate
scaling plus heavier jitter and must meaningfully perturb. Both maps are
pure given an explicit rng stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synthdata import check_fields


@dataclass(frozen=True)
class AugmentSpec:
    weak_sigma: float = 0.05
    strong_sigma: float = 0.2
    strong_scale_range: tuple[float, float] = (0.9, 1.1)
    seed: int = 0

    def __post_init__(self):
        check_fields(type(self).__annotations__, vars(self), {}, {name: f"augment.{name}" for name in vars(self)})
        if not 0 <= self.weak_sigma <= self.strong_sigma:
            raise ValueError("need 0 <= augment.weak_sigma <= augment.strong_sigma")
        lo, hi = self.strong_scale_range
        if not 0 < lo <= 1.0 <= hi:
            raise ValueError("augment.strong_scale_range must satisfy 0 < lo <= 1 <= hi")


def weak(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """x + N(0, weak_sigma^2) per coordinate, fresh noise per call."""
    if not np.isfinite(x).all():
        raise ValueError("weak augmentation requires finite inputs")
    if spec.weak_sigma == 0:
        return np.array(x, copy=True)
    return x + rng.normal(0.0, spec.weak_sigma, size=x.shape)


def strong(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-coordinate scale from strong_scale_range, then N(0, strong_sigma^2)."""
    if not np.isfinite(x).all():
        raise ValueError("strong augmentation requires finite inputs")
    lo, hi = spec.strong_scale_range
    out = x * rng.uniform(lo, hi, size=x.shape)
    if spec.strong_sigma > 0:
        out = out + rng.normal(0.0, spec.strong_sigma, size=x.shape)
    return out
