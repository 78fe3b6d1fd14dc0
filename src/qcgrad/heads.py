"""Readout heads: expectation values to model outputs, losses, and cotangents.

Regression reads twice the Z expectation of one qubit against a squared
loss; binary classification pushes the Z expectations of two qubits through
a gamma-scaled two-way softmax into a cross-entropy loss.  Each head works
on a batch of probability vectors of shape (B, 2**n) and also produces the
probability cotangent dL/dp_j that seeds the backward pass.

The cotangents implement the exact chain rule of the losses as coded here
(including the gamma factor and the output-scale factor), so they agree
with finite differences of the end-to-end loss to oracle precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import z_sign_vector

#: Probabilities are clamped to [eps, 1-eps] before log().
CLAMP_EPS = 1e-12


@dataclass(frozen=True)
class RegressionHead:
    """Model output = output_scale * <Z> of the measured qubit."""

    measured_qubit: int = 0
    output_scale: float = 2.0

    def __post_init__(self):
        if not 0 < abs(self.output_scale) < math.inf:  # NaN fails too
            raise ValueError(f"output_scale must be finite and nonzero, got {self.output_scale}")


@dataclass(frozen=True)
class ClassificationHead:
    """Two-qubit readout with gamma-scaled softmax over (<Z_1>, <Z_2>)."""

    qubit_1: int = 0
    qubit_2: int = 1
    gamma: float = 1.0

    def __post_init__(self):
        if self.qubit_1 == self.qubit_2:
            raise ValueError(f"classification qubits must differ, both are {self.qubit_1}")
        if not 0 < self.gamma < math.inf:  # NaN fails too
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def softmax_gamma(z1: float, z2: float, gamma: float) -> tuple[float, float]:
    """Two-way softmax with scale gamma, as (y1, 1 - y1).

    Computed in the numerically stable logistic form
    y1 = 1 / (1 + exp(-gamma*(z1 - z2))), which makes y1 + y2 = 1 exact.
    """
    if not 0 < gamma < math.inf:  # NaN fails too
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    y1 = _sigmoid(gamma * (z1 - z2))
    return y1, 1.0 - y1


def regression_batch(
    probs: np.ndarray, targets: np.ndarray, head: RegressionHead, n_qubits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(losses, predictions, dL_dp) of the squared loss 0.5 * (pred - target)^2.

    dL/d<Z> = output_scale * (pred - target), spread as +/-1 over the
    measured qubit's bit of each basis index.
    """
    z = probs @ z_sign_vector(n_qubits, head.measured_qubit)
    preds = head.output_scale * z
    delta = preds - targets
    losses = 0.5 * delta**2
    dL_dp = (head.output_scale * delta)[:, None] * z_sign_vector(n_qubits, head.measured_qubit)
    return losses, preds, dL_dp


def classification_batch(
    probs: np.ndarray, labels: np.ndarray, head: ClassificationHead, n_qubits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(losses, y1, dL_dp) of cross entropy -(d*log(y1) + (1-d)*log(1-y1)).

    y1 is clamped to [eps, 1-eps] before log().  dL/d<Z_1> = gamma*(y1 - d)
    and dL/d<Z_2> is its negative; at gamma=1 this is the plain (y1 - d)
    error signal.
    """
    z1 = probs @ z_sign_vector(n_qubits, head.qubit_1)
    z2 = probs @ z_sign_vector(n_qubits, head.qubit_2)
    t = head.gamma * (z1 - z2)
    y1 = np.empty_like(t)
    pos = t >= 0
    y1[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    y1[~pos] = e / (1.0 + e)
    y = np.clip(y1, CLAMP_EPS, 1.0 - CLAMP_EPS)
    d = labels.astype(float)
    losses = -(d * np.log(y) + (1.0 - d) * np.log(1.0 - y))
    g = head.gamma * (y1 - d)
    signs = z_sign_vector(n_qubits, head.qubit_1) - z_sign_vector(n_qubits, head.qubit_2)
    return losses, y1, g[:, None] * signs


def readout(
    probs: np.ndarray, targets: np.ndarray, head: RegressionHead | ClassificationHead, n_qubits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(losses, outputs, dL_dp) of either head on a batch of probability vectors."""
    # each head's function is called by its module-level name, never looked
    # up in a table, so that rebinding the name reaches every call
    if isinstance(head, RegressionHead):
        return regression_batch(probs, targets, head, n_qubits)
    return classification_batch(probs, targets, head, n_qubits)
