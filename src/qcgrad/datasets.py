"""Seeded synthetic datasets: 1-D regression targets and 2-D two-class shapes.

All coordinates are guaranteed to lie in [-1, 1] (a hard requirement of the
input encoding).  Randomness comes from numpy's seeded PCG64 generator
(ziggurat normals), so a given seed reproduces a dataset byte for byte on
any machine running the same numpy; cross-language reproduction is not a
goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import as_index

REGRESSION_KINDS = ("linear", "square", "sine")


@dataclass(frozen=True)
class Dataset:
    """Columnar dataset: inputs (count, dim) and targets/labels (count,), read-only."""

    x: np.ndarray
    targets: np.ndarray
    task: str  # 'regression' | 'classification'

    def __post_init__(self):
        # read-only float copies, so neither the caller nor a consumer can change
        # a validated dataset; frozen, so set through object.__setattr__
        for name in ("x", "targets"):
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if np.ndim(self.x) != 2:
            raise ValueError(f"x must be 2-D (count, dim), got shape {np.shape(self.x)}")
        if len(self.x) == 0:
            raise ValueError("dataset must not be empty")
        if np.ndim(self.targets) != 1:
            raise ValueError(f"targets must be 1-D (count,), got shape {np.shape(self.targets)}")
        if len(self.x) != len(self.targets):
            raise ValueError(f"{len(self.x)} inputs but {len(self.targets)} targets")
        if self.task == "classification":
            if not np.isin(self.targets, (0, 1)).all():
                raise ValueError("classification targets must be 0 or 1")
        elif not np.isfinite(self.targets).all():
            raise ValueError("regression targets must be finite")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def feature_dim(self) -> int:
        return self.x.shape[1]


def _target_fn(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "linear":
        return x
    if kind == "square":
        return x**2
    if kind == "sine":
        return np.sin(x)
    raise ValueError(f"unknown target kind {kind!r}; expected one of {REGRESSION_KINDS}")


def gen_function_dataset(
    kind: str, count: int = 100, noise_sigma: float = 0.015, seed: int = 0
) -> Dataset:
    """1-D regression data: x ~ U[-1, 1], target = f(x) + noise_sigma * N(0, 1)."""
    if as_index(count, "count") < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _check_noise(noise_sigma)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=count)
    targets = _target_fn(kind, x) + noise_sigma * rng.standard_normal(count)
    return Dataset(x=x[:, None], targets=targets, task="regression")


def _check_noise(noise_sigma: float) -> None:
    if not 0 <= noise_sigma < math.inf:  # NaN fails too
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")


def _check_pair_count(count: int) -> None:
    """Two-class shapes put half of ``count`` points in each class."""
    if as_index(count, "count") < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if count % 2 != 0:
        raise ValueError(f"count must be even, got {count}")


def _two_classes(class_0: np.ndarray, class_1: np.ndarray, noise_sigma: float, seed: int) -> Dataset:
    """Points of class 0 then class 1, with optional Gaussian jitter, rescaled into [-1, 1].

    The rescale is a per-coordinate affine map, applied only when a point
    lies outside the box, so that noise-free shapes that already fit keep
    their geometry (e.g. exact circle radii).
    """
    _check_noise(noise_sigma)
    coords = np.concatenate([class_0, class_1])
    labels = np.concatenate([np.zeros(len(class_0)), np.ones(len(class_1))])
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        coords = coords + noise_sigma * rng.standard_normal(coords.shape)
    if np.abs(coords).max() > 1.0:
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        coords = -1.0 + 2.0 * (coords - lo) / (hi - lo)
    return Dataset(x=coords, targets=labels, task="classification")


def gen_circles(
    count: int = 200, noise_sigma: float = 0.0, inner_factor: float = 0.5, seed: int = 0
) -> Dataset:
    """Two concentric circles: outer (radius 1) labeled 0, inner labeled 1.

    Points sit at evenly spaced angles, half on each circle, with optional
    Gaussian jitter of scale ``noise_sigma`` before the range rescale.
    ``seed`` draws only that jitter: with ``noise_sigma == 0`` every seed
    gives the same points.
    """
    _check_pair_count(count)
    if not 0.0 < inner_factor < 1.0:
        raise ValueError(f"inner_factor must lie in (0, 1), got {inner_factor}")
    angles = np.linspace(0.0, 2.0 * np.pi, count // 2, endpoint=False)
    outer = np.column_stack([np.cos(angles), np.sin(angles)])
    return _two_classes(outer, inner_factor * outer, noise_sigma, seed)


def gen_moons(count: int = 200, noise_sigma: float = 0.0, seed: int = 0) -> Dataset:
    """Two interleaving half circles: upper arc labeled 0, shifted lower arc 1.

    Arc A is (cos t, sin t) and arc B is (1 - cos t, 0.5 - sin t) for t
    evenly spaced in [0, pi]; both coordinates are then affinely rescaled
    into [-1, 1].  ``seed`` draws only the optional Gaussian jitter of scale
    ``noise_sigma``: with ``noise_sigma == 0`` every seed gives the same
    points, so ``gen_moons(200, 0.0, 0)`` equals ``gen_moons(200, 0.0, 5)``.
    """
    _check_pair_count(count)
    t = np.linspace(0.0, np.pi, count // 2)
    arc_a = np.column_stack([np.cos(t), np.sin(t)])
    arc_b = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    return _two_classes(arc_a, arc_b, noise_sigma, seed)
