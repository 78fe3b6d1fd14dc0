"""Baseline gradient estimators: central finite differences and SPSA.

Both take an opaque loss evaluator ``f(theta) -> float`` so their evaluation
counts are exactly what they appear to be: 2 * len(theta) calls for finite
differences, 2 calls for one SPSA estimate.  SPSA's perturbation follows
Spall's practical guidelines with fixed constants; the trainer applies its
estimates with its own plain learning rate, not Spall's step-size schedule,
so that timing comparisons isolate gradient-computation cost.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

LossFunction = Callable[[np.ndarray], float]

#: Spall's practical perturbation constants, the c_k of :func:`spsa_perturbation_size`.
SPSA_C, SPSA_GAMMA = 0.1, 0.101


def spsa_perturbation_size(k: int) -> float:
    """c_k = SPSA_C / (k + 1)^SPSA_GAMMA, monotonically decaying in k."""
    return SPSA_C / (k + 1) ** SPSA_GAMMA


def _check_value(value: float, where: str, *args) -> float:
    # ``where`` is formatted with ``args`` only on failure: FD checks 2P values per gradient
    value = float(value)
    if not math.isfinite(value):
        raise ArithmeticError(f"loss evaluated to a non-finite value at {where.format(*args)}")
    return value


def _check_moved(theta: np.ndarray, plus: np.ndarray, minus: np.ndarray, step: str) -> None:
    # once the step is below half an ulp of a coordinate, theta +/- step is
    # theta, and the estimate would read an exact 0 rather than fail
    stuck = np.flatnonzero((plus == theta) | (minus == theta))
    if stuck.size:
        m = stuck[0]
        raise ArithmeticError(f"coordinate {m} = {float(theta[m])} does not move by +/-{step}")


def finite_difference_grad(f: LossFunction, theta: np.ndarray, h: float) -> np.ndarray:
    """Central finite differences: (f(theta + h e_m) - f(theta - h e_m)) / 2h.

    Calls ``f`` exactly ``2 * len(theta)`` times.
    """
    if not 0 < h < math.inf:  # NaN fails too
        raise ValueError(f"step size must be finite and > 0, got {h}")
    theta = np.asarray(theta, dtype=float)
    plus, minus = theta + h, theta - h
    _check_moved(theta, plus, minus, f"h = {h}")
    grad = np.empty_like(theta)
    probe = theta.copy()
    for m in range(theta.size):
        probe[m] = plus[m]
        f_plus = _check_value(f(probe), "coordinate {}, +h", m)
        probe[m] = minus[m]
        f_minus = _check_value(f(probe), "coordinate {}, -h", m)
        probe[m] = theta[m]
        grad[m] = (f_plus - f_minus) / (2.0 * h)
    return grad


def spsa_grad(f: LossFunction, theta: np.ndarray, k: int, seed: int) -> np.ndarray:
    """One simultaneous-perturbation estimate at iteration k; 2 calls to ``f``.

    The Rademacher direction is drawn from a generator seeded by (seed, k),
    so estimates are reproducible and independent across iterations.
    """
    if k < 0:
        raise ValueError(f"iteration index must be >= 0, got {k}")
    theta = np.asarray(theta, dtype=float)
    rng = np.random.default_rng([seed, k])
    delta = rng.integers(0, 2, size=theta.size) * 2.0 - 1.0
    ck = spsa_perturbation_size(k)
    plus, minus = theta + ck * delta, theta - ck * delta
    _check_moved(theta, plus, minus, f"c_k = {ck}")
    f_plus = _check_value(f(plus), "iteration {}, +c_k", k)
    f_minus = _check_value(f(minus), "iteration {}, -c_k", k)
    # 1/delta == delta componentwise for +/-1 entries
    return ((f_plus - f_minus) / (2.0 * ck)) * delta
