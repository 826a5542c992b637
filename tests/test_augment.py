import numpy as np
import pytest

from freematch_lab.augment import AugmentSpec, strong, weak


def test_weak_sigma_zero_is_identity():
    spec = AugmentSpec(weak_sigma=0.0, strong_sigma=0.1)
    x = np.random.default_rng(0).normal(size=(8, 2))
    assert np.array_equal(weak(x, spec, np.random.default_rng(0)), x)


def test_weak_noise_variance_concentrates():
    spec = AugmentSpec()
    rng = np.random.default_rng(0)
    x = np.zeros((100_000, 1))
    disp = weak(x, spec, rng) - x
    assert disp.var() == pytest.approx(spec.weak_sigma**2, rel=0.05)


def test_weak_preserves_shape():
    spec = AugmentSpec()
    x = np.ones((7, 3))
    assert weak(x, spec, np.random.default_rng(0)).shape == x.shape


def test_strong_identity_at_degenerate_spec():
    spec = AugmentSpec(weak_sigma=0.0, strong_sigma=0.0, strong_scale_range=(1.0, 1.0))
    x = np.random.default_rng(1).normal(size=(5, 2))
    assert np.allclose(strong(x, spec, np.random.default_rng(0)), x, atol=0)
    assert np.allclose(weak(x, spec, np.random.default_rng(0)), x, atol=0)


def test_strong_displacement_dominates_weak():
    spec = AugmentSpec()
    rng_w, rng_s = np.random.default_rng(2), np.random.default_rng(3)
    x = np.random.default_rng(4).normal(size=(20_000, 2))
    dw = ((weak(x, spec, rng_w) - x) ** 2).sum(axis=1).mean()
    ds = ((strong(x, spec, rng_s) - x) ** 2).sum(axis=1).mean()
    assert ds > dw


def test_strong_deterministic_under_fixed_stream():
    spec = AugmentSpec()
    x = np.random.default_rng(5).normal(size=(6, 2))
    assert np.array_equal(strong(x, spec, np.random.default_rng(0)), strong(x, spec, np.random.default_rng(0)))


def test_spec_validation():
    with pytest.raises(ValueError):
        AugmentSpec(weak_sigma=0.3, strong_sigma=0.2)
    with pytest.raises(ValueError):
        AugmentSpec(strong_scale_range=(1.1, 1.2))
    with pytest.raises(ValueError):
        weak(np.array([[np.inf, 0.0]]), AugmentSpec(), np.random.default_rng(0))
