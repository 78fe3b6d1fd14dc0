"""Full-batch gradient descent over any of the supported gradient methods.

The heavy lifting happens in :class:`CircuitObjective`, which encodes the
dataset once and evaluates losses/gradients for the whole batch with
vectorized kernels.  Per-sample quantities are reduced in fixed order, so a
fixed seed reproduces every history bit for bit.  The head owns its task,
qubits and metric; the objective owns the measurement.  Its one loss-only
forward, :meth:`~CircuitObjective.expectations`, maps theta to the (B, k) <Z>
of the head's qubits for ``loss``, ``evaluate`` and :func:`predict` (a
zero-target batch, so it meets every check); backprop measures the same way
and spreads the head's dL/d<Z> over the same +/-1 sign rows into dL/dp.

Basis rows.  With d = 2**n the circuit is ``final = psi @ P`` in row
convention, and P is the circuit run on the d basis rows.  The objective runs
the layers on those rows instead of the B inputs when
``(l + 1) * (B - d) >= OPERATOR_APPLY_COST * B``: that saves (l+1)(B-d)
passes of a rotation layer over one row, and applying P to each input
(:func:`qcgrad.state.apply_operator`) costs about ``OPERATOR_APPLY_COST``
of them.  The backward pass then walks the basis-row tape with the
cotangent ``encoded.T @ A`` (see :mod:`qcgrad.autodiff`).  Finite
differences and SPSA get the same loss-only forward, so every gradient
method runs on the best forward.  Measured on 2 vCPUs with numpy 2.4 and
OpenBLAS: at l = 10, over B from 16 to 400 and n from 2 to 8, under default
and single-threaded BLAS, the basis rows won from B/d of about 1.5-3 on and
mostly lost, 0.07-0.9x, at B/d <= 1.  Over l from 0 to 10 at B = 2d to 8d
and n from 3 to 6 (default threads), the loss-only forward broke even at l
of about 4-5 (n <= 5) to 10 (n = 6), the backprop step at l of about 1-2,
and at l = 0 the rows lost almost everywhere, down to 0.36x.  The rule
follows the loss-only forward: the rows run from B/d >= 1.6 at l = 10,
from 3 at l = 5, and never at l <= 3.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import backward_batch
from .baselines import SpsaConfig, finite_difference_grad, spsa_grad
from .circuit import AnsatzSpec, encode_batch, forward_batch, run_variational
from .datasets import Dataset
from .heads import ClassificationHead, RegressionHead, readout
from .state import apply_operator, z_sign_vector

GRADIENT_METHODS = ("backprop", "finite_difference", "spsa")

#: What applying the circuit's operator to one input costs, in passes of one
#: rotation layer over one row: the basis rows are run instead of the inputs
#: when that saves more (see the module docstring).
OPERATOR_APPLY_COST = 4


class TrainingDivergedError(ArithmeticError):
    """Raised when the loss or gradient turns non-finite during training."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    iterations: int = 200
    gamma: float = 1.0
    init_seed: int = 0
    gradient_method: str = "backprop"
    fd_step: float = 1e-4

    def __post_init__(self):
        # written so that NaN fails each check too
        for name in ("learning_rate", "gamma", "fd_step"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.gradient_method not in GRADIENT_METHODS:
            raise ValueError(
                f"unknown gradient_method {self.gradient_method!r}; "
                f"expected one of {GRADIENT_METHODS}"
            )


@dataclass(frozen=True)
class TrainResult:
    final_theta: np.ndarray
    loss_history: np.ndarray
    metric_history: np.ndarray
    wall_time_seconds: float


class CircuitObjective:
    """Batched loss/gradient evaluations for one (dataset, circuit, head).

    The encoded input states depend only on the data, so they are computed
    once and shared by every evaluation.
    """

    def __init__(self, dataset: Dataset, spec: AnsatzSpec, head):
        if dataset.feature_dim != spec.feature_dim:
            raise ValueError(
                f"dataset is {dataset.feature_dim}-D but the circuit encodes "
                f"{spec.feature_dim}-D inputs"
            )
        if not isinstance(head, (RegressionHead, ClassificationHead)):
            raise TypeError(f"unsupported head {type(head).__name__}")
        if dataset.task != head.task:
            raise ValueError(f"{head.task} head on a {dataset.task} dataset")
        # the +/-1 row of each head qubit: <Z> is probs @ row, and backprop
        # spreads dL/d<Z> over the rows into dL/dp
        self.signs = np.stack([z_sign_vector(spec.n_qubits, q) for q in head.qubits])
        self.spec = spec
        self.head = head
        self.targets = np.asarray(dataset.targets, dtype=float)
        self.encoded = encode_batch(dataset.x, spec)
        # the layers run on the d basis rows, whose final states are the
        # circuit's operator, where that saves work, else on the batch itself
        count, dim = self.encoded.shape
        basis_rows = (spec.depth_l + 1) * (count - dim) >= OPERATOR_APPLY_COST * count
        self.rows = np.eye(dim, dtype=complex) if basis_rows else self.encoded

    def _measure(self, row_finals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(final amplitudes, (B, k) <Z> of the head's qubits) of the batch, from
        the final states of its rows.  Each <Z_q> is one matvec against its sign
        row; one GEMM against all k rows rounds differently (2.7e-13 at n = 8)."""
        final = row_finals if self.rows is self.encoded else apply_operator(self.encoded, row_finals)
        probs = np.abs(final) ** 2
        return final, np.column_stack([probs @ signs for signs in self.signs])

    def expectations(self, theta: np.ndarray) -> np.ndarray:
        """(B, k) <Z> of the head's qubits at theta: the one loss-only forward."""
        return self._measure(run_variational(self.rows, theta, self.spec, record=False))[1]

    def loss(self, theta: np.ndarray) -> float:
        """Mean loss over the batch; the opaque evaluator handed to FD/SPSA."""
        return float(readout(self.expectations(theta), self.targets, self.head)[0].mean())

    def evaluate(self, theta: np.ndarray) -> tuple[float, float, np.ndarray]:
        """(mean loss, the head's metric, per-sample outputs) at theta.

        The outputs are predictions (regression) or y1 (classification).
        """
        losses, outputs, _ = readout(self.expectations(theta), self.targets, self.head)
        return float(losses.mean()), self.head.metric(outputs, self.targets), outputs

    def backprop(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(per-sample losses, per-sample outputs, mean gradient) via one forward and one backward."""
        tape = forward_batch(self.rows, theta, self.spec)
        final, z = self._measure(tape.final)
        losses, outputs, dL_dz = readout(z, self.targets, self.head)
        cotangent = (dL_dz @ self.signs) * np.conj(final)
        if self.rows is not self.encoded:
            cotangent = self.encoded.T @ cotangent
        return losses, outputs, backward_batch(tape, cotangent).sum(axis=0) / len(final)

    def loss_and_grad_backprop(self, theta: np.ndarray) -> tuple[float, float, np.ndarray]:
        """(mean loss, metric, mean gradient) via one forward and one backward."""
        losses, outputs, grad = self.backprop(theta)
        return float(losses.mean()), self.head.metric(outputs, self.targets), grad


def random_objective(
    rng: np.random.Generator, n_qubits: int, depth_l: int, classification: bool
) -> tuple[CircuitObjective, np.ndarray]:
    """(objective, theta) of one random single-input problem, for gradient checks.

    The input is a B=1 batch through the same objective that training uses.
    ``rng`` is drawn in a fixed order: x, theta, then gamma and label
    (classification) or target (regression).
    """
    feature_dim = 2 if classification else 1
    spec = AnsatzSpec(n_qubits=n_qubits, depth_l=depth_l, feature_dim=feature_dim)
    x = rng.uniform(-1.0, 1.0, size=(1, feature_dim))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=spec.param_count)
    if classification:
        head = ClassificationHead(gamma=float(rng.uniform(0.5, 5.0)))
        target, task = float(rng.integers(0, 2)), "classification"
    else:
        head = RegressionHead()
        target, task = float(rng.uniform(-2.0, 2.0)), "regression"
    dataset = Dataset(x=x, targets=np.array([target]), task=task)
    return CircuitObjective(dataset, spec, head), theta


def initial_theta(spec: AnsatzSpec, cfg: TrainConfig) -> np.ndarray:
    rng = np.random.default_rng(cfg.init_seed)
    return rng.uniform(0.0, 2.0 * math.pi, size=spec.param_count)


def train(dataset: Dataset, spec: AnsatzSpec, head, cfg: TrainConfig) -> TrainResult:
    """Plain full-batch gradient descent: theta <- theta - lr * mean gradient.

    The loss/metric histories are recorded at the pre-update parameters of
    each iteration.  Raises :class:`TrainingDivergedError` (with the
    iteration index) if anything turns non-finite.
    """
    objective = CircuitObjective(dataset, spec, head)
    theta = initial_theta(spec, cfg)
    losses = np.empty(cfg.iterations)
    metrics = np.empty(cfg.iterations)
    spsa_cfg = SpsaConfig(seed=cfg.init_seed)
    start = time.perf_counter()
    for it in range(cfg.iterations):
        try:
            if cfg.gradient_method == "backprop":
                loss, metric, grad = objective.loss_and_grad_backprop(theta)
            elif cfg.gradient_method == "finite_difference":
                loss, metric, _ = objective.evaluate(theta)
                grad = finite_difference_grad(objective.loss, theta, cfg.fd_step)
            else:
                loss, metric, _ = objective.evaluate(theta)
                grad = spsa_grad(objective.loss, theta, it, spsa_cfg)
        except ArithmeticError as exc:
            raise TrainingDivergedError(it, str(exc)) from exc
        if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise TrainingDivergedError(it, "non-finite loss or gradient")
        losses[it] = loss
        metrics[it] = metric
        theta = theta - cfg.learning_rate * grad
    wall = time.perf_counter() - start
    return TrainResult(
        final_theta=theta, loss_history=losses, metric_history=metrics, wall_time_seconds=wall
    )


def predict(xs: np.ndarray, theta: np.ndarray, spec: AnsatzSpec, head) -> np.ndarray:
    """Model outputs for inputs of shape (B, d): predictions, or class-1 probabilities y1.

    The inputs go through the training objective as a zero-target batch, so
    they meet every check that training data does.
    """
    # a non-head reaches the objective's type guard before its task is needed
    dataset = Dataset(x=xs, targets=np.zeros(len(xs)), task=getattr(head, "task", "regression"))
    return readout(CircuitObjective(dataset, spec, head).expectations(theta), dataset.targets, head)[1]
