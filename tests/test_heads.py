import math

import numpy as np
import pytest

from qcgrad import gates
from qcgrad.heads import (
    ClassificationHead,
    RegressionHead,
    classification_batch,
    readout,
    regression_batch,
    softmax_gamma,
)
from qcgrad.state import QuantumState, apply_single_qubit, basis_state, z_expectation


def uniform_state(n):
    return QuantumState(n, np.full(1 << n, (0.5) ** (n / 2), dtype=complex))


def read(state, target, head=RegressionHead()):
    """(loss, output, dL/d<Z>) of one state and target; <Z> from the z_expectation reference."""
    z = np.array([[z_expectation(state, q) for q in head.qubits]])
    losses, outputs, dL_dz = readout(z, np.array([target]), head)
    return losses[0], outputs[0], dL_dz[0]


def test_regression_output_examples():
    assert read(basis_state(3, 0), 0.0)[1] == 2.0
    assert abs(read(uniform_state(2), 0.0)[1]) < 1e-12
    s = apply_single_qubit(basis_state(1, 0), gates.ry(np.pi / 3), 0)
    assert abs(read(s, 0.0)[1] - 1.0) < 1e-12


def test_mse_loss_examples():
    # predictions 2<Z> of 1, 0 and 2 against targets 1, 1 and -1
    losses, preds, _ = readout(np.array([[0.5], [0.0], [1.0]]), np.array([1.0, 1.0, -1.0]), RegressionHead())
    assert np.array_equal(preds, [1.0, 0.0, 2.0])
    assert losses[0] == 0.0
    assert losses[1] == 0.5
    assert losses[2] == 4.5


def test_regression_dL_dz_examples():
    s = basis_state(1, 0)
    assert np.array_equal(read(s, 2.0)[2], np.zeros(1))
    # prediction 2, target 0 -> delta 2, dL/d<Z> = output_scale * delta = 4
    assert np.array_equal(read(s, 0.0)[2], [4.0])
    s3 = uniform_state(3)
    _, pred, cot = read(s3, -1.0)
    delta = pred - (-1.0)
    assert np.allclose(cot, [2.0 * delta])


def test_heads_read_expectations_and_return_their_cotangent():
    # the head functions take the (B, k) <Z> of the head's qubits
    losses, preds, dL_dz = regression_batch(np.array([[0.5], [-0.25]]), np.array([0.0, 1.0]), RegressionHead())
    assert np.array_equal(preds, [1.0, -0.5])
    assert np.array_equal(losses, [0.5, 1.125])
    assert np.array_equal(dL_dz, [[2.0], [-3.0]])  # output_scale * (pred - target)
    head = ClassificationHead(gamma=2.0)
    losses, y1, dL_dz = classification_batch(np.array([[0.3, 0.3], [1.0, -1.0]]), np.array([1.0, 0.0]), head)
    assert y1[0] == 0.5 and abs(losses[0] - math.log(2)) < 1e-12
    assert np.array_equal(dL_dz[0], [-1.0, 1.0])  # gamma * (y1 - d), then its negative
    assert dL_dz.shape == (2, 2) and dL_dz[1, 0] == -dL_dz[1, 1] == 2.0 * y1[1]
    assert RegressionHead(measured_qubit=2).qubits == (2,)
    assert ClassificationHead(qubit_1=3, qubit_2=1).qubits == (3, 1)


def test_head_metrics():
    assert RegressionHead().metric(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 1.0
    assert ClassificationHead().metric(np.array([0.7, 0.2, 0.5]), np.array([1.0, 1.0, 0.0])) == 2 / 3  # 0.5 reads as label 0
    assert (RegressionHead.task, RegressionHead.metric_name) == ("regression", "r_squared")
    assert (ClassificationHead.task, ClassificationHead.metric_name) == ("classification", "accuracy")


def test_softmax_gamma_values():
    y1, y2 = softmax_gamma(0.3, 0.1, 1.0)
    assert abs(y1 - 0.55) < 0.005 and abs(y2 - 0.45) < 0.005
    y1, y2 = softmax_gamma(0.3, 0.1, 5.0)
    assert abs(y1 - 0.731) < 0.005 and abs(y2 - 0.269) < 0.005
    # direct evaluation: 1 / (1 + e^{-0.6})
    y1, y2 = softmax_gamma(0.3, 0.1, 3.0)
    assert abs(y1 - 1.0 / (1.0 + math.exp(-0.6))) < 1e-12
    assert abs(y1 - 0.6457) < 5e-4


def test_softmax_sum_and_argmax_invariance():
    rng = np.random.default_rng(0)
    for _ in range(300):
        z1, z2 = rng.uniform(-1, 1, 2)
        gamma = float(rng.uniform(0.1, 10))
        y1, y2 = softmax_gamma(z1, z2, gamma)
        assert y1 + y2 == 1.0
        if z1 != z2:
            assert (y1 > y2) == (z1 > z2)
            y1b, _ = softmax_gamma(z1, z2, gamma * 2)
            assert max(y1b, 1 - y1b) > max(y1, y2)  # magnification with larger gamma


def test_softmax_rejects_bad_gamma():
    with pytest.raises(ValueError):
        softmax_gamma(0.1, 0.2, 0.0)


def test_classification_head_rejects_nan_gamma():
    with pytest.raises(ValueError, match="finite"):
        ClassificationHead(gamma=math.nan)


def test_cross_entropy_examples():
    # |01> (qubit 0 set) gives <Z_1> - <Z_2> = -2, |10> gives +2
    sure_one = basis_state(2, 2)
    sure_zero = basis_state(2, 1)
    loss, y1, _ = read(sure_one, 1, ClassificationHead(gamma=40.0))
    assert y1 == 1.0 and loss < 1e-11
    uniform = uniform_state(2)
    assert abs(read(uniform, 1, ClassificationHead())[0] - math.log(2)) < 1e-12
    assert abs(read(uniform, 0, ClassificationHead())[0] - math.log(2)) < 1e-12
    loss, y1, _ = read(sure_zero, 1, ClassificationHead(gamma=400.0))
    assert y1 == 0.0 and 0 < loss < math.inf  # clamped, no log(0) blowup


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(1)
    z = rng.uniform(-1.0, 1.0, size=(200, 2))
    labels = rng.integers(0, 2, size=200).astype(float)
    gamma = float(rng.uniform(0.5, 10.0))
    losses, _, _ = readout(z, labels, ClassificationHead(gamma=gamma))
    assert np.all(losses >= 0.0)


def test_classification_dL_dz_equal_expectations():
    # uniform state: z1 = z2 = 0 so y1 = 0.5; at gamma=1 the error signal is +/-0.5
    head = ClassificationHead(gamma=1.0)
    uniform = uniform_state(2)
    cot1 = read(uniform, 1, head)[2]
    assert np.allclose(cot1, [-0.5, 0.5], atol=1e-12)
    # flipping the label flips the signal
    assert np.allclose(read(uniform, 0, head)[2], -cot1, atol=1e-12)


def test_classification_dL_dz_scales_with_gamma():
    uniform = uniform_state(2)
    c1 = read(uniform, 1, ClassificationHead(gamma=1.0))[2]
    c5 = read(uniform, 1, ClassificationHead(gamma=5.0))[2]
    # same y1 = 0.5 at both gammas here, so the gamma factor is exactly 5x
    assert np.allclose(c5, 5.0 * c1, atol=1e-12)


def test_head_validation():
    with pytest.raises(ValueError):
        ClassificationHead(qubit_1=1, qubit_2=1)
    with pytest.raises(ValueError):
        ClassificationHead(gamma=0.0)
    for scale in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="output_scale"):
            RegressionHead(output_scale=scale)
    assert RegressionHead(output_scale=-0.5).output_scale == -0.5


def test_batch_heads_match_scalar_ops():
    # each batch row against the single-state readout z_expectation and softmax_gamma
    rng = np.random.default_rng(2)
    n = 3
    states = []
    for _ in range(6):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        states.append(QuantumState(n, amps / np.linalg.norm(amps)))
    z = np.array([[z_expectation(s, q) for q in range(n)] for s in states])

    targets = rng.uniform(-2, 2, 6)
    losses, preds, dL_dz = readout(z[:, :1], targets, RegressionHead())
    for i, s in enumerate(states):
        pred = 2.0 * z_expectation(s, 0)
        assert abs(preds[i] - pred) < 1e-12
        assert abs(losses[i] - 0.5 * (pred - targets[i]) ** 2) < 1e-12
        assert np.allclose(dL_dz[i], [2.0 * (pred - targets[i])], atol=1e-12)

    labels = rng.integers(0, 2, 6).astype(float)
    losses, y1s, dL_dz = readout(z[:, :2], labels, ClassificationHead(gamma=3.0))
    for i, s in enumerate(states):
        y1, y2 = softmax_gamma(z_expectation(s, 0), z_expectation(s, 1), 3.0)
        d = labels[i]
        assert abs(y1s[i] - y1) < 1e-12
        assert abs(losses[i] + d * math.log(y1) + (1 - d) * math.log(y2)) < 1e-12
        assert np.allclose(dL_dz[i], [3.0 * (y1 - d), -3.0 * (y1 - d)], atol=1e-12)
