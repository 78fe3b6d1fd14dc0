import math

import numpy as np
import pytest

from qcgrad import gates
from qcgrad.heads import (
    ClassificationHead,
    RegressionHead,
    classification_batch,
    classification_loss,
    readout,
    readout_loss,
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
    assert y1 == 0.0 and loss == 800.0  # log(1 + e^800), no log(0) blowup


@pytest.mark.parametrize("gamma", [20.0, 400.0])
def test_cross_entropy_gradient_matches_central_differences_when_confidently_wrong(gamma):
    # each row's y1 lies within 1e-12 of the wrong label (within 1e-11 for the
    # last at gamma = 20, and exactly on it at gamma = 400): a loss taken as
    # the log of a clamped y1 is flat there, and its central differences read
    # 0 where dL/d<Z> reads -/+gamma
    z = np.array([[-0.75, 0.75], [0.9, -0.8], [-1.0, 1.0], [0.6, -0.7]])
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    head = ClassificationHead(gamma=gamma)
    dL_dz = classification_batch(z, labels, head)[2]
    h = 1e-6
    for k in range(2):
        step = np.zeros_like(z)
        step[:, k] = h
        up, down = (classification_batch(z + sign * step, labels, head)[0] for sign in (1, -1))
        np.testing.assert_allclose((up - down) / (2 * h), dL_dz[:, k], rtol=1e-6, atol=0)


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


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("gamma", [1.0, 400.0])
def test_loss_only_classification_head_equals_the_batch_head_bit_for_bit(gamma):
    # t = 0, small and saturated |t| (800 at gamma = 400), both signs, for
    # each label, with <Z> laid out as the objective's (k, B) transpose
    z1 = np.array([0.0, 0.3, 1e-3, -0.5, 0.999, 1.0, -1.0])
    z2 = np.array([0.0, 0.3, -2e-3, 0.25, -0.999, -1.0, 1.0])
    z = np.array([z1, z2]).T
    head = ClassificationHead(gamma=gamma)
    for label in (0.0, 1.0):
        labels = np.full(len(z1), label)
        expected = classification_batch(z, labels, head)[0]
        out = np.full(len(z1), np.nan)
        assert classification_loss(z, labels, head, out) is out
        assert same_bits(out, expected)
        out[:] = np.nan
        assert readout_loss(z, labels, head, out) is out and same_bits(out, expected)


@pytest.mark.parametrize("scale", [2.0, -2.0])
def test_loss_only_regression_head_equals_the_batch_head_bit_for_bit(scale):
    z = np.array([[1.0], [-1.0], [0.0], [0.3], [-0.7], [1e-9]])
    targets = np.array([2.0, 2.0, -2.0, 0.1, 1.9, -1e-9])
    head = RegressionHead(output_scale=scale)
    expected = regression_batch(z, targets, head)[0]
    out = np.full(len(targets), np.nan)
    assert readout_loss(z, targets, head, out) is out and same_bits(out, expected)


def masked_classification(z, labels, gamma):
    """classification_batch's returns in an earlier boolean-mask form, as a reference.

    The loss is the cross entropy log(1 + e^s), with s = -t for label 1 and
    t for label 0, one row at a time through the math module.
    """
    t = gamma * (z[:, 0] - z[:, 1])
    y1 = np.empty_like(t)
    pos = t >= 0
    y1[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    y1[~pos] = e / (1.0 + e)
    d = labels.astype(float)
    s = (1.0 - 2.0 * d) * t
    losses = np.array([max(s_i, 0.0) + math.log1p(math.exp(-abs(s_i))) for s_i in s])
    g = gamma * (y1 - d)
    return losses, y1, np.column_stack([g, -g])


@pytest.mark.parametrize("gamma", [1.0, 2.0, 30.0, 400.0])
def test_classification_batch_equals_the_masked_form_bit_for_bit(gamma):
    # each edge row comes with both labels: t = gamma * (z1 - z2) is +0 in
    # rows 0-1 and -0 in rows 2-3, and at gamma = 400 rows 4-11 reach
    # |t| >= 740, up to 800, past the 745 where exp underflows to 0
    edges = np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, -1.0], [-1.0, 1.0], [0.9, -0.95], [-0.95, 0.9]])
    z = np.concatenate([np.repeat(edges, 2, axis=0), np.random.default_rng(12).uniform(-1, 1, (200, 2))])
    labels = np.concatenate([np.tile([0.0, 1.0], len(edges)), np.random.default_rng(13).integers(0, 2, 200)])
    head = ClassificationHead(gamma=gamma)
    assert np.signbit(gamma * (z[2, 0] - z[2, 1])) and not np.signbit(gamma * (z[0, 0] - z[0, 1]))
    losses, *got = classification_batch(z, labels, head)
    expected_losses, *expected = masked_classification(z, labels, gamma)
    for value, reference in zip(got, expected, strict=True):
        assert value.shape == reference.shape
        assert np.array_equal(value, reference)
    # the same libm exp and log1p as np.logaddexp, bit for bit with numpy 2.4
    # on glibc; a vectorised build may round them differently
    assert losses.shape == expected_losses.shape
    np.testing.assert_allclose(losses, expected_losses, rtol=1e-15, atol=0)
