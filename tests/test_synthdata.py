import os

import numpy as np
import pytest

from freematch_lab.atomic import atomic_open, write_csv
from freematch_lab.synthdata import (
    PointSet,
    TwoMoonSpec,
    batch_iter,
    gen_gaussian_clusters,
    gen_two_moons,
    to_csv,
)


def _on_arc(points: np.ndarray, labels: np.ndarray) -> bool:
    upper = points[labels == 0]
    lower = np.array([1.0, 0.25]) - points[labels == 1]  # undo the point reflection
    for arc in (upper, lower):
        r = np.hypot(arc[:, 0], arc[:, 1])
        if not np.allclose(r, 1.0, atol=1e-12) or (arc[:, 1] < -1e-12).any():
            return False
    return True


def test_two_moons_zero_noise_on_canonical_arcs():
    bundle = gen_two_moons(TwoMoonSpec(n_unlabeled=200, noise_sigma=0.0, seed=3))
    for ps in (bundle.labeled, bundle.unlabeled, bundle.test):
        assert _on_arc(ps.points, ps.labels)


def test_two_moons_one_label_per_class():
    bundle = gen_two_moons(TwoMoonSpec(n_unlabeled=100, labels_per_class=1, seed=1))
    assert len(bundle.labeled) == 2
    assert sorted(bundle.labeled.labels.tolist()) == [0, 1]
    # arc midpoints, jitter-free
    assert np.allclose(bundle.labeled.points[0], [0.0, 1.0], atol=1e-12)
    assert np.allclose(bundle.labeled.points[1], [1.0, -0.75], atol=1e-12)


def test_two_moons_seed_determinism():
    spec = TwoMoonSpec(n_unlabeled=300, seed=9)
    a, b = gen_two_moons(spec), gen_two_moons(spec)
    assert np.array_equal(a.unlabeled.points, b.unlabeled.points)
    assert np.array_equal(a.test.points, b.test.points)
    assert np.array_equal(a.labeled.points, b.labeled.points)


def test_two_moons_arcs_disjoint_with_default_noise_margin():
    # canonical arcs (no jitter) never intersect, so Bayes error of the arcs is 0
    theta = np.linspace(0, np.pi, 2000)
    upper = np.column_stack([np.cos(theta), np.sin(theta)])
    lower = np.array([1.0, 0.25]) - upper
    d2 = ((upper[:, None, :] - lower[None, :, :]) ** 2).sum(axis=2)
    assert np.sqrt(d2.min()) > 0.5


def test_two_moons_not_linearly_separable_by_anchor_bisector():
    # the straight boundary induced by the two labeled anchors must cut the tips,
    # otherwise threshold ablations cannot distinguish the schemes
    bundle = gen_two_moons(TwoMoonSpec(n_unlabeled=2000, noise_sigma=0.0, seed=0))
    a, b = bundle.labeled.points
    mid, normal = (a + b) / 2, a - b
    side = (bundle.unlabeled.points - mid) @ normal > 0
    acc = max((side == (bundle.unlabeled.labels == 0)).mean(), (side == (bundle.unlabeled.labels == 1)).mean())
    assert acc < 0.95


def test_two_moons_spec_validation():
    with pytest.raises(ValueError):
        TwoMoonSpec(n_unlabeled=1, labels_per_class=1)
    with pytest.raises(ValueError):
        TwoMoonSpec(noise_sigma=-0.1)
    for bad in (dict(n_unlabeled="1000"), dict(n_unlabeled=1.5), dict(labels_per_class=True), dict(seed=-1),
                dict(noise_sigma=float("nan")), dict(noise_sigma="0.1")):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TwoMoonSpec(**bad)


def test_clusters_sigma_zero_collapses_to_means():
    means = [[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]]
    bundle = gen_gaussian_clusters(3, 10, means, sigma=0.0, seed=0)
    for ps in (bundle.unlabeled, bundle.test):
        for c, m in enumerate(means):
            assert np.allclose(ps.points[ps.labels == c], m, atol=0)


def test_clusters_separated_closest_mean_oracle():
    means = np.array([[-10.0, 0.0], [10.0, 0.0]])
    bundle = gen_gaussian_clusters(2, 200, means.tolist(), sigma=0.5, seed=4)
    d = ((bundle.unlabeled.points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    pred = d.argmin(axis=1)
    assert (pred == bundle.unlabeled.labels).mean() == 1.0


def test_clusters_duplicate_means_rejected():
    with pytest.raises(ValueError):
        gen_gaussian_clusters(2, 10, [[0.0, 0.0], [0.0, 0.0]], sigma=1.0, seed=0)


def test_clusters_bad_arguments_rejected():
    good = dict(C=2, n_per_class=10, means=[[0.0, 0.0], [1.0, 1.0]], sigma=1.0, seed=0)
    for bad in (dict(C=2.0), dict(n_per_class="10"), dict(sigma=float("inf")), dict(seed=-1), dict(seed=1.5),
                dict(labels_per_class=0), dict(n_test_per_class=0), dict(means=[1.0, 2.0]), dict(means=[[0, "a"], [1, 1]]),
                dict(means=[[0, 0, 0], [3, 0, 0]])):
        with pytest.raises(ValueError, match="means" if "means" in bad else next(iter(bad))):
            gen_gaussian_clusters(**{**good, **bad})


def test_clusters_determinism():
    kwargs = dict(C=2, n_per_class=50, means=[[0, 0], [3, 3]], sigma=0.2, seed=11)
    a, b = gen_gaussian_clusters(**kwargs), gen_gaussian_clusters(**kwargs)
    assert np.array_equal(a.unlabeled.points, b.unlabeled.points)


def test_batch_iter_full_batch_covers_dataset():
    ps = PointSet(np.arange(10, dtype=float).reshape(5, 2), np.arange(5))
    it = batch_iter(ps, B=5, seed=0)
    batch = next(it)
    assert sorted(batch.labels.tolist()) == [0, 1, 2, 3, 4]


def test_batch_iter_deterministic_sequences():
    ps = PointSet(np.random.default_rng(0).normal(size=(20, 2)), np.zeros(20, dtype=int))
    seq1 = [next(batch_iter(ps, 4, seed=7)).points for _ in range(1)]
    it_a, it_b = batch_iter(ps, 4, seed=7), batch_iter(ps, 4, seed=7)
    for _ in range(12):  # spans multiple epochs
        assert np.array_equal(next(it_a).points, next(it_b).points)


def test_batch_iter_ratio_contract():
    # mu=7, B=8: drawing from independent labeled/unlabeled streams gives 8 and 56
    lab = PointSet(np.random.default_rng(1).normal(size=(16, 2)), np.zeros(16, dtype=int))
    unlab = PointSet(np.random.default_rng(2).normal(size=(300, 2)), np.zeros(300, dtype=int))
    lb = next(batch_iter(lab, 8, seed=0))
    ub = next(batch_iter(unlab, 7 * 8, seed=1))
    assert len(lb.points) == 8 and len(ub.points) == 56


def test_batch_iter_rejects_empty_and_oversize():
    ps = PointSet(np.ones((3, 2)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        next(batch_iter(ps, 4, seed=0))
    with pytest.raises(ValueError):
        next(batch_iter(PointSet(np.ones((0, 2)), np.zeros(0, dtype=int)), 1, seed=0))


def test_to_csv_roundtrip_columns(tmp_path):
    bundle = gen_two_moons(TwoMoonSpec(n_unlabeled=10, seed=0))
    path = tmp_path / "data.csv"
    to_csv(bundle, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0,x1,label,split"
    assert len(lines) == 1 + 2 + 10 + 1000


def test_atomic_open_leaves_the_old_file_when_the_write_fails(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(str(path)) as fh:
            fh.write("partial")
            raise RuntimeError("write failed")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]  # the temp file is gone
    with atomic_open(str(path)) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_csv_cell_rule(tmp_path):
    """None is empty, text is written as is, a number as %.12g."""
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], [[None, "x y"], [np.int64(1), 0.1], [-0.0, 1 / 3]])
    assert path.read_bytes() == b"a,b\r\n,x y\r\n1,0.1\r\n-0,0.333333333333\r\n"
    assert os.listdir(tmp_path) == ["t.csv"]
