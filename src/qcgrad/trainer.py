"""Full-batch gradient descent over any of the supported gradient methods.

The heavy lifting happens in :class:`CircuitObjective`, which encodes the
dataset once and returns losses, outputs and gradients for the whole batch;
:func:`train` scores the head's metric from the outputs.  Per-sample
quantities are reduced in fixed order, so a fixed seed reproduces every
history bit for bit.  The head owns its task, qubits and metric; the
objective owns the measurement.  Its one loss-only forward maps theta to
the (B, k) <Z> of the head's qubits for ``loss``, ``evaluate``,
:meth:`~CircuitObjective.expectations` and :func:`predict` (a zero-target
batch, so it meets every check).  ``loss``, the evaluator that finite
differences and SPSA call, reads only the per-sample losses from the head
(:func:`qcgrad.heads.readout_loss`); the others read its losses, outputs and
dL/d<Z> (:func:`qcgrad.heads.readout`), and ``loss_and_grad_backprop``
measures the same way and spreads dL/d<Z> over the same +/-1 sign rows into
dL/dp.

Buffers.  The objective keeps every array its evaluations write, with
every float view and bound call over them: the measurement's (the operator
of :func:`qcgrad.state.operator_plan`, the probabilities and <Z>), shared by
both paths and made with the objective, whose ``rows`` are fixed then, and
``loss`` writes its losses into the probabilities, free once <Z> is read;
each path's forward plan (:func:`qcgrad.circuit.variational_plan`), which
owns its theta, layer operators, every temporary of their build and its
rows, the loss-only one made on the path's first call; and for the backprop
step, made on its first call, the cotangents, the recording plan, one
:class:`~qcgrad.circuit.BatchTape` of that plan's theta, rows and diagonals,
and the backward (:func:`qcgrad.autodiff.backward_plan`) bound to that tape.
The diagonals of both plans and the backward's Y phases are full factors
of the rows' shape, and the backward keeps every layer's products for one
sign matmul (:func:`qcgrad.autodiff.backward_plan`).  At n = 4, B = 200 a
loss-only forward is mostly numpy's per-call overhead: planning it on
every call took 62 and 138 us against 34 and 93 us with the kept plan at
l = 5 and 20 (2 vCPUs, numpy 2.4 with OpenBLAS).  So one objective is not
re-entrant: each call overwrites the buffers of the one before.  Nothing
it returns aliases a buffer: the outputs and the gradient are fresh
arrays, and ``expectations`` returns a copy.

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

from .autodiff import backward_batch, backward_plan
from .baselines import finite_difference_grad, spsa_grad
from .circuit import AnsatzSpec, BatchTape, encode_batch, run_variational, variational_plan
from .datasets import Dataset
from .heads import ClassificationHead, RegressionHead, readout, readout_loss
from .state import apply_operator, as_index, as_real, operator_plan, z_sign_vector

GRADIENT_METHODS = ("backprop", "finite_difference", "spsa")

#: What applying the circuit's operator to one input costs, in passes of one
#: rotation layer over one row: the basis rows are run instead of the inputs
#: when that saves more (see the module docstring).
OPERATOR_APPLY_COST = 4


class TrainingDivergedError(ArithmeticError):
    """Raised when the loss or the parameters turn non-finite during training."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one :func:`train` run.  ``train`` reads gamma from the head it
    is given, not from here: ``gamma`` is what ``qcgrad bench`` and perfbench
    build their :class:`~qcgrad.heads.ClassificationHead` from."""

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
            if not 0 < as_real(value, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if as_index(self.iterations, "iterations") < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if as_index(self.init_seed, "init_seed") < 0:
            raise ValueError(f"init_seed must be >= 0, got {self.init_seed}")
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
        self.targets = dataset.targets
        self.encoded = encode_batch(dataset.x, spec)
        # the layers run on the d basis rows, whose final states are the
        # circuit's operator, where that saves work, else on the batch itself
        count, dim = self.encoded.shape
        basis_rows = (spec.depth_l + 1) * (count - dim) >= OPERATOR_APPLY_COST * count
        self.rows = np.eye(dim, dtype=complex) if basis_rows else self.encoded
        # the measurement's buffers, which both paths share; the operator is
        # applied first when the layers run on the basis rows
        self._operator = operator_plan(self.encoded) if basis_rows else None
        self._probs = np.empty(self.encoded.shape)
        # the loss-only head writes into the probabilities, free once <Z> is measured
        self._losses = self._probs.reshape(-1)[:count]
        z = np.empty((len(self.signs), count))
        self._z_steps = [(self._probs, row, out) for row, out in zip(self.signs, z)]
        self._z = z.T
        # the loss-only forward's plan, and the backprop step's: made on first use
        self._loss_plan = None
        self._backward = None

    def _measure(self, row_finals):
        """Write the (B, k) <Z> of the head's qubits into ``_z``; returns the batch's final states.

        Each <Z_q> is one matvec of the probabilities against its sign row,
        written into row q of a (k, B) array whose transpose is ``_z``; one
        GEMM against all k rows rounds differently (2.7e-13 at n = 8).  The
        probabilities are squared in place.
        """
        final = row_finals if self._operator is None else apply_operator(self.encoded, row_finals, self._operator)
        np.abs(final, out=self._probs)
        np.square(self._probs, out=self._probs)
        for step in self._z_steps:
            np.matmul(*step)
        return final

    def _expectations(self, theta):
        """The loss-only forward: the (B, k) <Z> at theta, in the objective's buffer."""
        if self._loss_plan is None:
            self._loss_plan = variational_plan(self.rows, self.spec, record=False)
        self._measure(run_variational(self.rows, theta, self.spec, record=False, plan=self._loss_plan))
        return self._z

    def expectations(self, theta: np.ndarray) -> np.ndarray:
        """(B, k) <Z> of the head's qubits at theta, from the one loss-only forward, as a fresh array."""
        return self._expectations(theta).copy()

    def loss(self, theta: np.ndarray) -> float:
        """Mean loss over the batch; the opaque evaluator handed to FD/SPSA.

        Only the losses are computed, and nothing is kept for the next call:
        84 us at n = 4, l = 5, B = 200 (2 vCPUs, numpy 2.4).
        """
        losses = readout_loss(self._expectations(theta), self.targets, self.head, self._losses)
        # np.mean's own sum and division, without its Python-level dispatch
        return float(losses.sum()) / len(losses)

    def evaluate(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """(mean loss, per-sample outputs) at theta from one loss-only forward.

        The outputs are predictions (regression) or y1 (classification).
        """
        losses, outputs, _ = readout(self._expectations(theta), self.targets, self.head)
        return float(losses.sum()) / len(losses), outputs

    def loss_and_grad_backprop(self, theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """(mean loss, per-sample outputs, mean gradient) via one forward and one backward."""
        # made before the first forward: made after it, perfbench's bp-deep peak RSS read +0.05 MB
        if self._backward is None:
            self._cotangent = np.empty_like(self.encoded)
            self._row_cotangent = self._cotangent if self._operator is None else np.empty_like(self.rows)
            self._record_plan = buffer, posts, diags, _ = variational_plan(self.rows, self.spec, record=True)
            self._tape = BatchTape(self.spec, posts, buffer, diags)
            self._backward = backward_plan(self._tape)
        posts = run_variational(self.rows, theta, self.spec, record=True, plan=self._record_plan)
        final = self._measure(posts[-1])
        losses, outputs, dL_dz = readout(self._z, self.targets, self.head)
        # dL_dp * conj(final), dL_dp made in the free probabilities and cast
        # in the cotangent buffer: a real factor is cast through a (B, 2**n)
        # temporary at the step's peak memory.  Nothing reads final again, so
        # it is conjugated in place
        np.matmul(dL_dz, self.signs, out=self._probs)
        self._cotangent[...] = self._probs
        np.multiply(self._cotangent, np.conjugate(final, out=final), out=self._cotangent)
        if self._operator is not None:
            np.matmul(self.encoded.T, self._cotangent, out=self._row_cotangent)
        grad = backward_batch(self._tape, self._row_cotangent, self._backward)
        return float(losses.sum()) / len(losses), outputs, grad.sum(axis=0) / len(outputs)


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

    The loss and the head's metric, scored here from the objective's outputs,
    are recorded at the pre-update parameters of each iteration.  Raises
    :class:`TrainingDivergedError` (with the iteration index) if the loss or
    theta turns non-finite.  The loop runs under ``np.errstate(over="raise",
    invalid="raise")``, so an overflow in an iteration raises there rather
    than warning and running on.
    """
    objective = CircuitObjective(dataset, spec, head)
    theta = initial_theta(spec, cfg)
    losses = np.empty(cfg.iterations)
    metrics = np.empty(cfg.iterations)
    start = time.perf_counter()
    with np.errstate(over="raise", invalid="raise"):
        for it in range(cfg.iterations):
            try:
                if cfg.gradient_method == "backprop":
                    loss, outputs, grad = objective.loss_and_grad_backprop(theta)
                elif cfg.gradient_method == "finite_difference":
                    loss, outputs = objective.evaluate(theta)
                    grad = finite_difference_grad(objective.loss, theta, cfg.fd_step)
                else:
                    loss, outputs = objective.evaluate(theta)
                    grad = spsa_grad(objective.loss, theta, it, cfg.init_seed)
                metric = head.metric(outputs, objective.targets)
                theta = theta - cfg.learning_rate * grad
            except ArithmeticError as exc:
                raise TrainingDivergedError(it, str(exc)) from exc
            if not math.isfinite(loss) or not np.isfinite(theta).all():
                raise TrainingDivergedError(it, "non-finite loss or parameters")
            losses[it] = loss
            metrics[it] = metric
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
