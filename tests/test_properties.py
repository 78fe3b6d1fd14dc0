"""Property tests of the one simulation path: a single input is a B=1 batch.

Random specs with n in 1..4, l in 0..3 and batches of 1..4 inputs check that
each batch row is independent of the others, that states stay normalised,
and that the reverse-mode gradient agrees with central finite differences of
the same B=1 loss within acceptance criterion 1's tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcgrad.autodiff import backward_batch
from qcgrad.baselines import finite_difference_grad
from qcgrad.circuit import AnsatzSpec, encode_batch, forward_batch
from qcgrad.datasets import Dataset
from qcgrad.heads import ClassificationHead, RegressionHead
from qcgrad.trainer import CircuitObjective

# derandomized so that a tier-1 run is reproducible
PROPERTY = settings(deadline=None, derandomize=True)


def floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def specs(draw):
    n = draw(st.integers(1, 4))
    feature_dim = draw(st.sampled_from((1, 2))) if n >= 2 else 1
    return AnsatzSpec(n, draw(st.integers(0, 3)), feature_dim=feature_dim)


@st.composite
def batches(draw):
    """(spec, xs of shape (B, d), theta, dL_dp of shape (B, 2**n))."""
    spec = draw(specs())
    b = draw(st.integers(1, 4))
    xs = draw(hnp.arrays(float, (b, spec.feature_dim), elements=floats(-1.0, 1.0)))
    theta = draw(hnp.arrays(float, spec.param_count, elements=floats(0.0, 2.0 * np.pi)))
    dL_dp = draw(hnp.arrays(float, (b, 1 << spec.n_qubits), elements=floats(-2.0, 2.0)))
    return spec, xs, theta, dL_dp


def run(xs, theta, spec):
    return forward_batch(encode_batch(xs, spec), theta, spec)


@PROPERTY
@given(batches())
def test_batch_forward_rows_equal_single_runs_bit_for_bit(case):
    spec, xs, theta, _ = case
    encoded = encode_batch(xs, spec)
    tape = forward_batch(encoded, theta, spec)
    for i in range(len(xs)):
        single = run(xs[i : i + 1], theta, spec)
        assert np.array_equal(encoded[i], encode_batch(xs[i : i + 1], spec)[0])
        for post, single_post in zip(tape.posts, single.posts, strict=True):
            assert np.array_equal(post[i], single_post[0])


@PROPERTY
@given(batches())
def test_batch_gradient_rows_equal_single_gradients(case):
    spec, xs, theta, dL_dp = case
    tape = run(xs, theta, spec)
    grads = backward_batch(tape, dL_dp * np.conj(tape.final))
    for i in range(len(xs)):
        single_tape = run(xs[i : i + 1], theta, spec)
        single = backward_batch(single_tape, dL_dp[i : i + 1] * np.conj(single_tape.final))[0]
        assert np.abs(grads[i] - single).max() <= 1e-14


@PROPERTY
@given(batches())
def test_final_states_have_unit_norm(case):
    spec, xs, theta, _ = case
    norms = np.sum(np.abs(run(xs, theta, spec).final) ** 2, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-12)


@st.composite
def single_input_objectives(draw):
    """(objective, theta) of one input with a regression or classification head."""
    spec = draw(specs())
    x = draw(hnp.arrays(float, (1, spec.feature_dim), elements=floats(-1.0, 1.0)))
    theta = draw(hnp.arrays(float, spec.param_count, elements=floats(0.0, 2.0 * np.pi)))
    if spec.n_qubits >= 2 and draw(st.booleans()):
        head = ClassificationHead(gamma=draw(floats(0.5, 5.0)))
        dataset = Dataset(x, np.array([float(draw(st.integers(0, 1)))]), "classification")
    else:
        head = RegressionHead(measured_qubit=draw(st.integers(0, spec.n_qubits - 1)))
        dataset = Dataset(x, np.array([draw(floats(-2.0, 2.0))]), "regression")
    return CircuitObjective(dataset, spec, head), theta


@PROPERTY
@given(single_input_objectives())
def test_backprop_matches_central_differences(case):
    objective, theta = case
    g_bp = objective.loss_and_grad_backprop(theta)[2]
    g_fd = finite_difference_grad(objective.loss, theta, 1e-5)
    assert np.all(np.abs(g_bp - g_fd) <= np.maximum(1e-7, 1e-5 * np.abs(g_fd)))
