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
from qcgrad.state import (
    QuantumState,
    apply_single_qubit,
    basis_state,
    probabilities,
    z_expectation,
    z_sign_vector,
)


def uniform_state(n):
    return QuantumState(n, np.full(1 << n, (0.5) ** (n / 2), dtype=complex))


def probs_of(state):
    """Probabilities of one state as a B=1 batch."""
    return probabilities(state)[None, :]


def spread(dL_dz, head, n):
    """dL/dp of a batch: dL/d<Z> spread over the +/-1 rows of the head's qubits."""
    return dL_dz @ np.stack([z_sign_vector(n, q) for q in head.qubits])


def regression(state, target, head=RegressionHead()):
    """(loss, prediction, dL_dp) of one state and target."""
    losses, preds, dL_dz = readout(probs_of(state), np.array([target]), head, state.n_qubits)
    return losses[0], preds[0], spread(dL_dz, head, state.n_qubits)[0]


def classification(probs, label, head):
    """(loss, y1, dL_dp) of one probability vector and label."""
    n = int(np.log2(len(probs)))
    losses, y1, dL_dz = readout(np.asarray(probs)[None, :], np.array([label]), head, n)
    return losses[0], y1[0], spread(dL_dz, head, n)[0]


def one_qubit_probs(z):
    """Probabilities of one qubit with <Z> = z."""
    return np.array([(1.0 + z) / 2.0, (1.0 - z) / 2.0])


def test_regression_output_examples():
    assert regression(basis_state(3, 0), 0.0)[1] == 2.0
    assert abs(regression(uniform_state(2), 0.0)[1]) < 1e-12
    s = apply_single_qubit(basis_state(1, 0), gates.ry(np.pi / 3), 0)
    assert abs(regression(s, 0.0)[1] - 1.0) < 1e-12


def test_mse_loss_examples():
    # predictions 2<Z> of 1, 0 and 2 against targets 1, 1 and -1
    probs = np.stack([one_qubit_probs(0.5), one_qubit_probs(0.0), one_qubit_probs(1.0)])
    losses, preds, _ = readout(probs, np.array([1.0, 1.0, -1.0]), RegressionHead(), 1)
    assert np.array_equal(preds, [1.0, 0.0, 2.0])
    assert losses[0] == 0.0
    assert losses[1] == 0.5
    assert losses[2] == 4.5


def test_regression_dL_dp_examples():
    s = basis_state(1, 0)
    assert np.array_equal(regression(s, 2.0)[2], np.zeros(2))
    # prediction 2, target 0 -> delta 2, dL/d<Z> = 4, split +/- on the bit
    assert np.array_equal(regression(s, 0.0)[2], [4.0, -4.0])
    s3 = uniform_state(3)
    _, pred, cot = regression(s3, -1.0)
    delta = pred - (-1.0)
    assert np.allclose(cot, 2.0 * delta * z_sign_vector(3, 0))


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
    sure_one = probabilities(basis_state(2, 2))
    sure_zero = probabilities(basis_state(2, 1))
    loss, y1, _ = classification(sure_one, 1, ClassificationHead(gamma=40.0))
    assert y1 == 1.0 and loss < 1e-11
    uniform = probabilities(uniform_state(2))
    assert abs(classification(uniform, 1, ClassificationHead())[0] - math.log(2)) < 1e-12
    assert abs(classification(uniform, 0, ClassificationHead())[0] - math.log(2)) < 1e-12
    loss, y1, _ = classification(sure_zero, 1, ClassificationHead(gamma=400.0))
    assert y1 == 0.0 and 0 < loss < math.inf  # clamped, no log(0) blowup


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(4), size=200)
    labels = rng.integers(0, 2, size=200).astype(float)
    gamma = float(rng.uniform(0.5, 10.0))
    losses, _, _ = readout(probs, labels, ClassificationHead(gamma=gamma), 2)
    assert np.all(losses >= 0.0)


def test_classification_dL_dp_equal_expectations():
    # uniform state: z1 = z2 = 0 so y1 = 0.5; at gamma=1 the error signal is +/-0.5
    head = ClassificationHead(gamma=1.0)
    uniform = probabilities(uniform_state(2))
    cot1 = classification(uniform, 1, head)[2]
    expected = -0.5 * (z_sign_vector(2, 0) - z_sign_vector(2, 1))
    assert np.allclose(cot1, expected, atol=1e-12)
    # flipping the label flips the signal
    assert np.allclose(classification(uniform, 0, head)[2], -cot1, atol=1e-12)


def test_classification_dL_dp_scales_with_gamma():
    uniform = probabilities(uniform_state(2))
    c1 = classification(uniform, 1, ClassificationHead(gamma=1.0))[2]
    c5 = classification(uniform, 1, ClassificationHead(gamma=5.0))[2]
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
    probs = np.stack([probabilities(s) for s in states])

    head_r = RegressionHead()
    targets = rng.uniform(-2, 2, 6)
    losses, preds, dL_dz = readout(probs, targets, head_r, n)
    dl = spread(dL_dz, head_r, n)
    for i, s in enumerate(states):
        pred = 2.0 * z_expectation(s, 0)
        assert abs(preds[i] - pred) < 1e-12
        assert abs(losses[i] - 0.5 * (pred - targets[i]) ** 2) < 1e-12
        assert np.allclose(dl[i], 2.0 * (pred - targets[i]) * z_sign_vector(n, 0), atol=1e-12)

    head_c = ClassificationHead(gamma=3.0)
    labels = rng.integers(0, 2, 6).astype(float)
    losses, y1s, dL_dz = readout(probs, labels, head_c, n)
    dl = spread(dL_dz, head_c, n)
    for i, s in enumerate(states):
        y1, y2 = softmax_gamma(z_expectation(s, 0), z_expectation(s, 1), 3.0)
        d = labels[i]
        assert abs(y1s[i] - y1) < 1e-12
        assert abs(losses[i] + d * math.log(y1) + (1 - d) * math.log(y2)) < 1e-12
        expected = 3.0 * (y1 - d) * (z_sign_vector(n, 0) - z_sign_vector(n, 1))
        assert np.allclose(dl[i], expected, atol=1e-12)
