import math

import numpy as np
import pytest

from qcgrad.datasets import Dataset, gen_circles, gen_function_dataset, gen_moons


def test_function_dataset_shapes_and_range():
    ds = gen_function_dataset("square", count=100, noise_sigma=0.015, seed=0)
    assert ds.x.shape == (100, 1) and ds.targets.shape == (100,)
    assert ds.task == "regression"
    assert np.all(np.abs(ds.x) <= 1.0)


def test_function_dataset_noise_free_targets():
    for kind, fn in (("linear", lambda x: x), ("square", np.square), ("sine", np.sin)):
        ds = gen_function_dataset(kind, count=50, noise_sigma=0.0, seed=3)
        assert np.array_equal(ds.targets, fn(ds.x[:, 0]))


def test_function_dataset_deterministic():
    a = gen_function_dataset("sine", 64, 0.015, seed=9)
    b = gen_function_dataset("sine", 64, 0.015, seed=9)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.targets.tobytes() == b.targets.tobytes()
    c = gen_function_dataset("sine", 64, 0.015, seed=10)
    assert a.targets.tobytes() != c.targets.tobytes()


def test_function_dataset_validation():
    with pytest.raises(ValueError):
        gen_function_dataset("cube", 10, 0.0, 0)
    with pytest.raises(ValueError):
        gen_function_dataset("sine", 0, 0.0, 0)
    for noise in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma"):
            gen_function_dataset("sine", 10, noise, 0)


def test_circles_structure():
    ds = gen_circles(count=200, noise_sigma=0.0, inner_factor=0.5, seed=0)
    assert len(ds) == 200 and ds.task == "classification"
    labels = ds.targets.astype(int)
    assert (labels == 0).sum() == 100 and (labels == 1).sum() == 100
    radii = np.linalg.norm(ds.x, axis=1)
    assert np.allclose(radii[labels == 0], 1.0, atol=1e-12)
    assert np.allclose(radii[labels == 1], 0.5, atol=1e-12)
    assert np.all(np.abs(ds.x) <= 1.0)


def test_circles_radius_threshold_oracle():
    ds = gen_circles(count=200, noise_sigma=0.0, inner_factor=0.5, seed=1)
    predicted = (np.linalg.norm(ds.x, axis=1) < 0.75).astype(int)
    assert np.array_equal(predicted, ds.targets.astype(int))


def test_circles_noise_keeps_range_and_determinism():
    a = gen_circles(count=60, noise_sigma=0.1, seed=5)
    b = gen_circles(count=60, noise_sigma=0.1, seed=5)
    assert np.all(np.abs(a.x) <= 1.0)
    assert a.x.tobytes() == b.x.tobytes()


def test_circles_validation():
    with pytest.raises(ValueError):
        gen_circles(count=7)
    for count in (0, -2, -3):
        with pytest.raises(ValueError, match="count must be >= 2"):
            gen_circles(count=count)
    with pytest.raises(ValueError):
        gen_circles(count=10, inner_factor=1.0)
    # NaN would otherwise skip the jitter silently, since nan > 0 is false
    for noise in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma"):
            gen_circles(count=10, noise_sigma=noise)


def test_moons_structure():
    ds = gen_moons(count=200, noise_sigma=0.0, seed=0)
    labels = ds.targets.astype(int)
    assert (labels == 0).sum() == 100 and (labels == 1).sum() == 100
    assert np.all(np.abs(ds.x) <= 1.0)
    # independent reconstruction: arc A = (cos t, sin t), arc B shifted and
    # flipped, both affinely rescaled per coordinate into [-1, 1]
    t = np.linspace(0.0, np.pi, 100)
    raw = np.concatenate(
        [np.column_stack([np.cos(t), np.sin(t)]),
         np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])]
    )
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    expected = -1.0 + 2.0 * (raw - lo) / (hi - lo)
    assert np.allclose(ds.x, expected, atol=1e-12)
    # first arc-A point is (cos 0, sin 0) = (1, 0) before the rescale
    assert raw[0, 0] == 1.0 and raw[0, 1] == 0.0


def test_moons_deterministic():
    a = gen_moons(count=80, noise_sigma=0.05, seed=2)
    b = gen_moons(count=80, noise_sigma=0.05, seed=2)
    assert a.x.tobytes() == b.x.tobytes()
    assert np.all(np.abs(a.x) <= 1.0)


def test_moons_validation():
    with pytest.raises(ValueError):
        gen_moons(count=11)
    for count in (0, -2, -3):
        with pytest.raises(ValueError, match="count must be >= 2"):
            gen_moons(count=count)
    assert len(gen_moons(count=2)) == 2
    for noise in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma"):
            gen_moons(count=10, noise_sigma=noise)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((3, 1)), targets=np.zeros(3), task="clustering")
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((0, 1)), targets=np.zeros(0), task="regression")
    with pytest.raises(ValueError, match="3 inputs but 2 targets"):
        Dataset(x=np.zeros((3, 1)), targets=np.zeros(2), task="regression")
    for x in (np.zeros(3), np.zeros((3, 1, 1)), np.float64(0.5)):
        with pytest.raises(ValueError, match="must be 2-D"):
            Dataset(x=x, targets=np.zeros(3), task="regression")
    for labels in ([0, 2, 1], [0, -1, 1], [0, 0.5, 1], [0, np.nan, 1]):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            Dataset(x=np.zeros((3, 2)), targets=np.array(labels), task="classification")
    Dataset(x=np.zeros((3, 2)), targets=np.array([0.0, 1.0, 1.0]), task="classification")
    # regression targets stay unchecked: a non-finite one reaches train()
    Dataset(x=np.zeros((3, 1)), targets=np.array([0.0, np.inf, 2.5]), task="regression")

