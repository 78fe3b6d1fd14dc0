"""Readout heads: Z expectations to model outputs, losses, metrics and cotangents.

Regression reads twice the Z expectation of one qubit against a squared
loss; binary classification pushes the Z expectations of two qubits through
a gamma-scaled two-way softmax into a cross-entropy loss.  Each head owns
its contract: the ``task`` of the datasets it reads, the ``qubits`` whose
<Z> it reads, and its ``metric`` (R^2 or 0/1 accuracy) with the name that
the metric is logged under.

The heads read only <Z>: :func:`readout` takes the (B, k) <Z> of the head's
k qubits and returns the per-sample losses, outputs and dL/d<Z>;
:func:`readout_loss` writes the losses alone, bit for bit the same, into its
caller's (B,) array, and the classification head computes only them there
(at B = 200 it took 14 us in full and 6 us so; 2 vCPUs, numpy 2.4).  The
measurement itself, from the final states to <Z>, belongs to
:class:`qcgrad.trainer.CircuitObjective`, which also spreads dL/d<Z> over
the qubits' +/-1 sign rows into the dL/dp that seeds the backward pass;
anything that shifts <Z> itself (such as a parameter-shift rule) chains
through dL/d<Z> directly.

The cotangents implement the exact chain rule of the losses as coded here
(including the gamma factor and the output-scale factor), so they agree
with finite differences of the end-to-end loss to oracle precision.  The
cross entropy is computed in closed form from the softmax's logit, not as
the log of a clamped y1, so that holds where y1 rounds to 0 or 1 too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .state import as_index, as_real


def r_squared(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise ValueError("predictions and targets must be equal-length and non-empty")
    ss_tot = float(np.sum((targets - targets.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("targets have zero variance; R^2 is undefined")
    ss_res = float(np.sum((targets - predictions) ** 2))
    return 1.0 - ss_res / ss_tot


def accuracy(predicted_labels: np.ndarray, true_labels: np.ndarray) -> float:
    """Fraction of matching 0/1 labels."""
    predicted_labels = np.asarray(predicted_labels)
    true_labels = np.asarray(true_labels)
    if predicted_labels.shape != true_labels.shape or true_labels.size == 0:
        raise ValueError("label vectors must be equal-length and non-empty")
    # the count is an exact integer, so this is np.mean of the matches, bit for bit
    return np.count_nonzero(predicted_labels == true_labels) / true_labels.size


@dataclass(frozen=True)
class RegressionHead:
    """Model output = output_scale * <Z> of the measured qubit; metric R^2."""

    measured_qubit: int = 0
    output_scale: float = 2.0

    task: ClassVar[str] = "regression"
    metric_name: ClassVar[str] = "r_squared"
    metric_report: ClassVar[str] = "final R^2: {:.6f}"

    def __post_init__(self):
        if as_index(self.measured_qubit, "measured_qubit index") < 0:
            raise ValueError(f"measured_qubit index {self.measured_qubit} out of range: must be >= 0")
        if not 0 < abs(as_real(self.output_scale, "output_scale")) < math.inf:  # NaN fails too
            raise ValueError(f"output_scale must be finite and nonzero, got {self.output_scale}")

    @property
    def qubits(self) -> tuple[int]:
        return (self.measured_qubit,)

    def metric(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        return r_squared(outputs, targets)


@dataclass(frozen=True)
class ClassificationHead:
    """Two-qubit readout with gamma-scaled softmax over (<Z_1>, <Z_2>); metric
    0/1 accuracy, with label 1 iff y1 > 0.5."""

    qubit_1: int = 0
    qubit_2: int = 1
    gamma: float = 1.0

    task: ClassVar[str] = "classification"
    metric_name: ClassVar[str] = "accuracy"
    metric_report: ClassVar[str] = "final accuracy: {:.4f}"

    def __post_init__(self):
        for name in ("qubit_1", "qubit_2"):
            if as_index(getattr(self, name), f"{name} index") < 0:
                raise ValueError(f"{name} index {getattr(self, name)} out of range: must be >= 0")
        if self.qubit_1 == self.qubit_2:
            raise ValueError(f"classification qubits must differ, both are {self.qubit_1}")
        if not 0 < as_real(self.gamma, "gamma") < math.inf:  # NaN fails too
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")

    @property
    def qubits(self) -> tuple[int, int]:
        return (self.qubit_1, self.qubit_2)

    def metric(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        return accuracy(outputs > 0.5, targets)


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
    if not 0 < as_real(gamma, "gamma") < math.inf:  # NaN fails too
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    y1 = _sigmoid(gamma * (z1 - z2))
    return y1, 1.0 - y1


def _logit(z: np.ndarray, head: ClassificationHead, out: np.ndarray | None = None) -> np.ndarray:
    """t = gamma*(<Z_1> - <Z_2>), into ``out`` if given."""
    return np.multiply(head.gamma, np.subtract(z[:, 0], z[:, 1], out=out), out=out)


def _cross_entropy(t: np.ndarray, labels: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(-t)) for label 1 and log(1 + exp(t)) for label 0, into ``out`` (which may be ``t``)
    if given: exact, finite and smooth however far y1 is from the label."""
    signs = 1.0 - 2.0 * np.asarray(labels, dtype=float)
    return np.logaddexp(0.0, np.multiply(signs, t, out=out), out=out)


def regression_batch(
    z: np.ndarray, targets: np.ndarray, head: RegressionHead
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(losses, predictions, dL/d<Z>) of the squared loss 0.5 * (pred - target)^2.

    ``z`` is the (B, 1) <Z> of the measured qubit; dL/d<Z> = output_scale *
    (pred - target), shape (B, 1).
    """
    preds = head.output_scale * z[:, 0]
    delta = preds - targets
    return 0.5 * np.square(delta), preds, (head.output_scale * delta)[:, None]


def classification_batch(
    z: np.ndarray, labels: np.ndarray, head: ClassificationHead
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(losses, y1, dL/d<Z>) of cross entropy -(d*log(y1) + (1-d)*log(1-y1)).

    ``z`` is the (B, 2) of (<Z_1>, <Z_2>) and t = gamma*(<Z_1> - <Z_2>).  The
    loss is computed in closed form from t (:func:`_cross_entropy`), not from
    y1.  dL/d<Z_1> = gamma*(y1 - d) and dL/d<Z_2> is its negative; at
    gamma=1 this is the plain (y1 - d) error signal.
    """
    t = _logit(z, head)
    # the logistic form for each sign of t, with e = exp(-|t|), never overflows
    e = np.exp(-np.abs(t))
    denominator = 1.0 + e
    y1 = np.where(t >= 0, 1.0 / denominator, e / denominator)
    d = np.asarray(labels, dtype=float)
    losses = _cross_entropy(t, d)
    dL_dz = np.empty((len(t), 2))
    np.multiply(head.gamma, y1 - d, out=dL_dz[:, 0])
    np.negative(dL_dz[:, 0], out=dL_dz[:, 1])
    return losses, y1, dL_dz


def classification_loss(
    z: np.ndarray, labels: np.ndarray, head: ClassificationHead, out: np.ndarray
) -> np.ndarray:
    """The losses of :func:`classification_batch` alone, bit for bit, written into the (B,) ``out``."""
    return _cross_entropy(_logit(z, head, out), labels, out)


def readout(
    z: np.ndarray, targets: np.ndarray, head: RegressionHead | ClassificationHead
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(losses, outputs, dL/d<Z>) of either head on the (B, k) <Z> of its qubits."""
    # each head's function is called by its module-level name, never looked
    # up in a table, so that rebinding the name reaches every call
    if isinstance(head, RegressionHead):
        return regression_batch(z, targets, head)
    return classification_batch(z, targets, head)


def readout_loss(
    z: np.ndarray, targets: np.ndarray, head: RegressionHead | ClassificationHead, out: np.ndarray
) -> np.ndarray:
    """The per-sample losses alone of either head, written into the (B,) ``out`` and returned."""
    if isinstance(head, RegressionHead):
        out[:] = regression_batch(z, targets, head)[0]
        return out
    return classification_loss(z, targets, head, out)
