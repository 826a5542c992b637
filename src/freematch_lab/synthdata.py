"""Seed-deterministic synthetic datasets: interlocking half-circle moons,
isotropic Gaussian clusters, and a 1-D two-component Gaussian mixture.

Every generator is a pure function of its spec and seed. Moon geometry:
class 0 is the upper unit half-circle centered at the origin; class 1 is its
point reflection offset by (1.0, 0.25), so the crescents interlock and a
straight line through the two labeled anchors misclassifies the moon tips.
The jitter-free arcs stay disjoint (gap 0.75), so any residual test error
belongs to the learner.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

_MOON_OFFSET = np.array([1.0, 0.25])


@dataclass(frozen=True)
class TwoMoonSpec:
    n_unlabeled: int = 1000
    labels_per_class: int = 1
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.labels_per_class < 1:
            raise ValueError("labels_per_class must be >= 1")
        if self.n_unlabeled < 2 * self.labels_per_class:
            raise ValueError("n_unlabeled must be >= 2 * labels_per_class")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class MixtureSpec:
    """Binary mixture: X|Y=-1 ~ N(mu1, sigma1^2), X|Y=+1 ~ N(mu2, sigma2^2),
    Y uniform on {-1, +1}. Canonicalized so mu2 > mu1; beta is the confidence
    sharpness and tau the pseudo-labeling threshold."""

    mu1: float
    mu2: float
    sigma1: float = 1.0
    sigma2: float = 1.0
    beta: float = 1.0
    tau: float = 0.95

    def __post_init__(self):
        if self.mu1 == self.mu2:
            raise ValueError("class means must differ")
        if self.mu1 > self.mu2:
            # swap the class parameter pairs so mu2 > mu1 always holds
            for a, b in (("mu1", "mu2"), ("sigma1", "sigma2")):
                va, vb = getattr(self, a), getattr(self, b)
                object.__setattr__(self, a, vb)
                object.__setattr__(self, b, va)
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


@dataclass(frozen=True)
class LabeledBatch:
    points: np.ndarray  # [B, d]
    labels: np.ndarray  # [B] int class ids

    def __post_init__(self):
        if self.points.ndim != 2 or len(self.points) == 0:
            raise ValueError("batch must be a non-empty [B, d] array")
        if len(self.labels) != len(self.points) or (self.labels < 0).any():
            raise ValueError("labels must match the batch and be non-negative")


@dataclass(frozen=True)
class UnlabeledBatch:
    points: np.ndarray  # [B, d]
    true_labels: np.ndarray | None = None  # diagnostics only, hidden from the learner

    def __post_init__(self):
        if self.points.ndim != 2 or len(self.points) == 0:
            raise ValueError("batch must be a non-empty [B, d] array")


@dataclass(frozen=True)
class PointSet:
    points: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class DatasetBundle:
    labeled: PointSet
    unlabeled: PointSet  # labels kept as hidden ground truth
    test: PointSet
    n_classes: int


def _moon_points(theta: np.ndarray, cls: int) -> np.ndarray:
    if cls == 0:
        return np.column_stack([np.cos(theta), np.sin(theta)])
    return _MOON_OFFSET - np.column_stack([np.cos(theta), np.sin(theta)])


def _moon_split(n: int, rng: np.random.Generator, noise_sigma: float) -> PointSet:
    n0 = n - n // 2
    theta0 = rng.uniform(0.0, np.pi, size=n0)
    theta1 = rng.uniform(0.0, np.pi, size=n // 2)
    pts = np.vstack([_moon_points(theta0, 0), _moon_points(theta1, 1)])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n // 2, dtype=np.int64)])
    pts = pts + rng.normal(0.0, noise_sigma, size=pts.shape) if noise_sigma > 0 else pts
    return PointSet(pts, labels)


def gen_two_moons(spec: TwoMoonSpec) -> DatasetBundle:
    """Labeled / unlabeled / 1000-point test split of the two-moon layout.

    Labeled points are jitter-free, evenly spaced along each arc so runs are
    comparable across seeds; labels_per_class=1 yields the two arc midpoints.
    """
    ss = np.random.SeedSequence(spec.seed)
    rng_unlab, rng_test = (np.random.default_rng(c) for c in ss.spawn(2))

    k = spec.labels_per_class
    theta = (np.arange(k) + 0.5) * np.pi / k
    lab_pts = np.vstack([_moon_points(theta, 0), _moon_points(theta, 1)])
    lab_y = np.concatenate([np.zeros(k, dtype=np.int64), np.ones(k, dtype=np.int64)])

    unlabeled = _moon_split(spec.n_unlabeled, rng_unlab, spec.noise_sigma)
    test = _moon_split(1000, rng_test, spec.noise_sigma)
    return DatasetBundle(PointSet(lab_pts, lab_y), unlabeled, test, n_classes=2)


def gen_gaussian_clusters(
    C: int,
    n_per_class: int,
    means: list,
    sigma: float,
    seed: int,
    labels_per_class: int = 1,
    n_test_per_class: int = 500,
) -> DatasetBundle:
    """Balanced isotropic clusters around the given means."""
    means_arr = np.asarray(means, dtype=np.float64)
    if C < 2 or len(means_arr) != C:
        raise ValueError("need C >= 2 means")
    if len(np.unique(means_arr, axis=0)) != C:
        raise ValueError("class means must be distinct")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    ss = np.random.SeedSequence(seed)
    rng_lab, rng_unlab, rng_test = (np.random.default_rng(c) for c in ss.spawn(3))

    def draw(rng, n_each):
        pts = np.vstack(
            [m + rng.normal(0.0, sigma, size=(n_each, means_arr.shape[1])) for m in means_arr]
        )
        labels = np.repeat(np.arange(C, dtype=np.int64), n_each)
        return PointSet(pts, labels)

    # first labeled point per class is the jitter-free mean; extras are sampled
    lab_parts = []
    for c, m in enumerate(means_arr):
        pts = [m]
        if labels_per_class > 1:
            pts.extend(m + rng_lab.normal(0.0, sigma, size=(labels_per_class - 1, len(m))))
        lab_parts.append(np.vstack(pts))
    lab_pts = np.vstack(lab_parts)
    lab_y = np.repeat(np.arange(C, dtype=np.int64), labels_per_class)

    return DatasetBundle(
        PointSet(lab_pts, lab_y),
        draw(rng_unlab, n_per_class),
        draw(rng_test, n_test_per_class),
        n_classes=C,
    )


def mixture_blocks(
    spec: MixtureSpec, n: int, seed: int | np.random.SeedSequence, block: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the n-sample draw of `sample_mixture` as consecutive (x, y)
    blocks of at most `block` samples each.

    The one-generator draw takes n labels and then n normals from one PCG64
    stream. Each label uses one 32-bit half of a 64-bit output, so the normals
    start ceil(n/2) outputs in. Two generators from the same seed reproduce it
    block by block: one draws the labels from the start, the other is advanced
    past them and draws the normals. Concatenated, the blocks are bit-identical
    to the one-generator draw.

    The two streams are drawn on two threads. A helper thread, alive only
    while this generator runs, draws the next block's normals while the
    caller's thread draws the labels, forms x and consumes the block; NumPy
    releases the GIL in both fills. Each generator is still used by one thread
    in the same order, so the blocks do not depend on the timing. On one CPU
    the threads take turns and the draw costs what it did serially. The price
    is one block of normals in flight besides the one being consumed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = np.random.default_rng(seed)
    normals = np.random.default_rng(seed)
    normals.bit_generator.advance((n + 1) // 2)
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(normals.standard_normal, min(block, n))
        for start in range(0, n, block):
            y = labels.integers(0, 2, size=min(block, n - start)) * 2 - 1
            z = pending.result()
            if start + block < n:
                pending = helper.submit(normals.standard_normal, min(block, n - start - block))
            yield np.where(y == 1, spec.mu2 + spec.sigma2 * z, spec.mu1 + spec.sigma1 * z), y


def sample_mixture(
    spec: MixtureSpec, n: int, seed: int | np.random.SeedSequence
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n samples (x, y) with y in {-1, +1} uniform and x | y Gaussian."""
    return next(mixture_blocks(spec, n, seed, block=n))


def batch_iter(dataset: PointSet, B: int, seed: int) -> Iterator[LabeledBatch]:
    """Cycle through the dataset forever with a fresh shuffle per epoch.

    Batches are always exactly B items; a tail shorter than B is dropped
    (reshuffling restores coverage across epochs). Requires B <= len(dataset).
    """
    n = len(dataset)
    if B < 1:
        raise ValueError("batch size must be >= 1")
    if n == 0:
        raise ValueError("dataset is empty")
    if B > n:
        raise ValueError(f"batch size {B} exceeds dataset size {n}")
    rng = np.random.default_rng(seed)
    while True:
        perm = rng.permutation(n)
        for start in range(0, n - B + 1, B):
            idx = perm[start : start + B]
            yield LabeledBatch(dataset.points[idx], dataset.labels[idx])


def to_csv(bundle: DatasetBundle, path) -> None:
    """Serialize all splits as rows of (x0, x1, label, split); atomic write."""
    import os

    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "label", "split"])
        for split, ps in (("labeled", bundle.labeled), ("unlabeled", bundle.unlabeled), ("test", bundle.test)):
            for (x0, x1), y in zip(ps.points, ps.labels):
                writer.writerow([f"{x0:.12g}", f"{x1:.12g}", int(y), split])
    os.replace(tmp, path)
