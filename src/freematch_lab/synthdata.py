"""Seed-deterministic training data: interlocking half-circle moons and
isotropic Gaussian clusters. The 1-D binary mixture of the theory checks
lives in `theory`.

Every generator is a pure function of its spec and seed. Moon geometry:
class 0 is the upper unit half-circle centered at the origin; class 1 is its
point reflection offset by (1.0, 0.25), so the crescents interlock and a
straight line through the two labeled anchors misclassifies the moon tips.
The jitter-free arcs stay disjoint (gap 0.75), so any residual test error
belongs to the learner.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .atomic import write_csv

_MOON_OFFSET = np.array([1.0, 0.25])


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def is_finite_pair(value) -> bool:
    return isinstance(value, (tuple, list)) and len(value) == 2 and all(map(is_finite_number, value))


# annotation (as source text) -> (what a value must be, its test)
_FIELD_KINDS = {
    "int": ("an integer", is_int),
    "float": ("a finite number", is_finite_number),
    "tuple[float, float]": ("a pair of finite numbers", is_finite_pair),
}


def check_fields(annotations: dict, values: dict, lows: dict, keys: dict = {}) -> None:
    """Values annotated `int` must be integers, `float` finite numbers,
    `tuple[float, float]` pairs of them, and each in `lows` at least its
    bound; errors name `keys.get(name, name)`."""
    for name, value in values.items():
        kind = _FIELD_KINDS.get(annotations.get(name))
        if kind and not kind[1](value):
            raise ValueError(f"{keys.get(name, name)} must be {kind[0]}, got {value!r}")
    for name, low in lows.items():
        if values[name] < low:
            raise ValueError(f"{keys.get(name, name)} must be >= {low}")


def read_object(doc, section: str, allowed, required=()) -> dict:
    """A JSON object's entries, its lists as tuples. A key not in `allowed` and
    a key of `required` that is absent are named, in one form for every section."""
    if not isinstance(doc, dict):
        raise ValueError(f"{section} must be an object, got {doc!r}")
    for what, keys in (("unknown", doc.keys() - set(allowed)), ("missing", set(required) - doc.keys())):
        if keys:
            raise ValueError(f"{what} {section} keys: {sorted(keys)}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}


def read_call(fn, doc, section: str):
    """fn called with doc's entries: fn's parameters are the keys allowed, and
    those without a default the keys required."""
    params = inspect.signature(fn).parameters
    return fn(**read_object(doc, section, params, [n for n, p in params.items() if p.default is p.empty]))


def read_kind(doc, section: str, kinds: dict):
    """The constructor in `kinds` that doc's `kind` names, called with doc's
    other entries by read_call."""
    read_object(doc, section, doc, ["kind"])  # read_call checks the other keys
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in kinds:  # `in` raises TypeError on an unhashable kind
        raise ValueError(f"unknown {section} kind {kind!r}")
    return read_call(kinds[kind], {k: v for k, v in doc.items() if k != "kind"}, section)


def streams(seed: int, n: int, bit_generator=None) -> list[np.random.Generator]:
    """n independent generators spawned from `seed`: every dataset, training
    and Monte-Carlo stream is derived here. The default bit generator, PCG64
    (named in the body so that importing this module does not load
    `numpy.random`), makes each `default_rng(child)`; the MC oracle passes
    SFC64, whose raw output is cheaper."""
    bit_generator = bit_generator or np.random.PCG64
    return [np.random.Generator(bit_generator(c)) for c in np.random.SeedSequence(seed).spawn(n)]


@dataclass(frozen=True)
class TwoMoonSpec:
    n_unlabeled: int = 1000
    labels_per_class: int = 1
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_fields(type(self).__annotations__, vars(self), {"labels_per_class": 1, "seed": 0})
        if self.n_unlabeled < 2 * self.labels_per_class:
            raise ValueError("n_unlabeled must be >= 2 * labels_per_class")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


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
    rng_unlab, rng_test = streams(spec.seed, 2)

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
    """Balanced isotropic clusters around the given 2-D means."""
    lows = {"n_per_class": 1, "labels_per_class": 1, "n_test_per_class": 1, "seed": 0}
    check_fields(gen_gaussian_clusters.__annotations__, locals(), lows)  # locals(): the parameters (and lows)
    if not (isinstance(means, (list, tuple)) and all(map(is_finite_pair, means))):
        raise ValueError(f"means must be a list of [x, y] pairs of finite numbers, got {means!r}")
    means_arr = np.asarray(means, dtype=np.float64)
    if C < 2 or len(means_arr) != C:
        raise ValueError("need C >= 2 means, one point each")
    if len(np.unique(means_arr, axis=0)) != C:
        raise ValueError("class means must be distinct")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    rng_lab, rng_unlab, rng_test = streams(seed, 3)

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


def check_batch_size(B: int, n: int, split: str = "dataset") -> None:
    """A batch of B items must fit in a split of n items."""
    if B < 1:
        raise ValueError("batch size must be >= 1")
    if n == 0:
        raise ValueError(f"{split} is empty")
    if B > n:
        raise ValueError(f"batch size {B} exceeds {split} size {n}")


def batch_iter(dataset: PointSet, B: int, seed: int | np.random.Generator) -> Iterator[PointSet]:
    """Cycle through the dataset forever with a fresh shuffle per epoch.

    Batches are always exactly B items; a tail shorter than B is dropped
    (reshuffling restores coverage across epochs). Requires B <= len(dataset).
    """
    n = len(dataset)
    check_batch_size(B, n)
    rng = np.random.default_rng(seed)
    while True:
        perm = rng.permutation(n)
        for start in range(0, n - B + 1, B):
            idx = perm[start : start + B]
            yield PointSet(dataset.points[idx], dataset.labels[idx])


def to_csv(bundle: DatasetBundle, path) -> None:
    """Serialize all splits as rows of (x0, x1, label, split); atomic write."""
    splits = (("labeled", bundle.labeled), ("unlabeled", bundle.unlabeled), ("test", bundle.test))
    write_csv(path, ["x0", "x1", "label", "split"],
              ([x0, x1, y, split] for split, ps in splits for (x0, x1), y in zip(ps.points, ps.labels)))
