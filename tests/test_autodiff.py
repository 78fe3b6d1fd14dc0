import math
import time

import numpy as np
import pytest
from conftest import single_tape, z_reference

from qcgrad.autodiff import HADAMARD_BLOCK, backward_batch, backward_plan, hadamard_plan
from qcgrad.baselines import finite_difference_grad
from qcgrad.circuit import AnsatzSpec, encode_batch, forward_batch, run_variational, variational_plan
from qcgrad.heads import ClassificationHead, readout
from qcgrad.state import z_sign_vector
from qcgrad.trainer import random_objective


def test_seed_cotangent_length_mismatch():
    spec = AnsatzSpec(1, 0)
    tape = single_tape([0.0], np.zeros(2), spec)
    with pytest.raises(ValueError):
        backward_batch(backward_plan(tape), np.zeros((1, 4)))
    with pytest.raises(ValueError):
        backward_batch(backward_plan(tape), np.zeros(2))  # one cotangent row per batch row


def test_plans_run_only_on_the_arrays_they_were_made_on():
    # a recording plan is its tape, and a backward plan's calls read the
    # arrays of the tape it was made on, its theta included, so it follows
    # every run of a kept recording plan
    rng = np.random.default_rng(8)
    spec = AnsatzSpec(3, 2)
    encoded = encode_batch(rng.uniform(-1, 1, (4, 1)), spec)
    tape = variational_plan(encoded, spec, record=True)
    backward = backward_plan(tape)
    for theta in rng.uniform(0, 2 * np.pi, (2, spec.param_count)):
        run_variational(encoded, theta, spec, record=True, plan=tape)
        cotangent = rng.normal(size=tape.final.shape) * np.conj(tape.final)
        fresh = forward_batch(encoded, theta, spec)
        assert np.array_equal(backward_batch(backward, cotangent), backward_batch(backward_plan(fresh), cotangent))


def test_single_ry_analytic_gradient():
    # L = <Z> of ry(t)|0>, so dL/dt = -sin t; the Z angle leaves probabilities alone
    spec = AnsatzSpec(1, 0)
    t = np.pi / 3
    tape = single_tape([0.0], np.array([t, 0.0]), spec)
    grad = backward_batch(backward_plan(tape), np.array([[1.0, -1.0]]) * np.conj(tape.final))[0]
    assert abs(grad[0] + np.sin(t)) < 1e-9
    assert abs(grad[1]) < 1e-12


def test_zero_cotangent_gives_zero_gradient():
    spec = AnsatzSpec(3, 2)
    rng = np.random.default_rng(0)
    tape = single_tape(rng.uniform(-1, 1, 1), rng.uniform(0, 2 * np.pi, spec.param_count), spec)
    cotangent = np.zeros((1, 8)) * np.conj(tape.final)
    assert np.array_equal(backward_batch(backward_plan(tape), cotangent), np.zeros((1, spec.param_count)))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)

    def check(n, l, classification):
        objective, theta = random_objective(rng, n, l, classification)
        g_bp = objective.loss_and_grad_backprop(theta)[2]
        g_fd = finite_difference_grad(objective.loss, theta, 1e-5)
        assert np.all(np.abs(g_bp - g_fd) <= np.maximum(1e-7, 1e-5 * np.abs(g_fd)))

    for trial in range(30):
        n = int(rng.integers(1, 6))
        l = int(rng.integers(0, 5))
        check(n, l, n >= 2 and trial % 2 == 1)
    # n = 7 splits each Y sub-layer into two Kronecker blocks, and n = 5..8
    # split the backward's Walsh-Hadamard transform into two blocks, at a
    # different qubit for each n
    for n in (5, 6, 7, 8):
        check(n, 1, False)
        check(n, 2, True)
    # n = 9 and 10 split it into three blocks, where its buffers swap twice
    check(9, 1, False)
    check(10, 1, True)


def test_gradient_is_real_and_finite():
    rng = np.random.default_rng(1)
    objective, theta = random_objective(rng, 4, 3, classification=True)
    grad = objective.loss_and_grad_backprop(theta)[2]
    assert grad.dtype.kind == "f"
    assert np.all(np.isfinite(grad))


def test_linearity_in_cotangent():
    rng = np.random.default_rng(2)
    spec = AnsatzSpec(3, 2)
    tape = single_tape(rng.uniform(-1, 1, 1), rng.uniform(0, 2 * np.pi, spec.param_count), spec)
    g1 = rng.normal(size=(1, 8))
    g2 = rng.normal(size=(1, 8))
    alpha, beta = 0.7, -1.3
    conj_final = np.conj(tape.final)
    # each call overwrites the plan's gradient buffer
    plan = backward_plan(tape)
    combined = backward_batch(plan, (alpha * g1 + beta * g2) * conj_final).copy()
    separate = alpha * backward_batch(plan, g1 * conj_final) + beta * backward_batch(plan, g2 * conj_final)
    assert np.abs(combined - separate).max() < 1e-10


def test_backward_batch_matches_per_sample():
    rng = np.random.default_rng(3)
    spec = AnsatzSpec(4, 3, feature_dim=2)
    xs = rng.uniform(-1, 1, (6, 2))
    theta = rng.uniform(0, 2 * np.pi, spec.param_count)
    head = ClassificationHead(gamma=2.0)
    labels = rng.integers(0, 2, size=6).astype(float)
    signs = np.stack([z_sign_vector(4, q) for q in head.qubits])

    def cotangent(final, targets):
        return (readout(z_reference(final, head.qubits), targets, head)[2] @ signs) * np.conj(final)

    bt = forward_batch(encode_batch(xs, spec), theta, spec)
    batch_grads = backward_batch(backward_plan(bt), cotangent(bt.final, labels))
    for i in range(6):
        tape = single_tape(xs[i], theta, spec)
        single = backward_batch(backward_plan(tape), cotangent(tape.final, labels[i : i + 1]))[0]
        assert np.allclose(batch_grads[i], single, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_batch_gradient_rows_equal_single_runs_beyond_four_qubits(n):
    # the backward pass multiplies all rows in one GEMM, so a row may differ
    # from its B=1 run in the last bits, never by more than 1e-14
    rng = np.random.default_rng(200 + n)
    spec = AnsatzSpec(n, 2)
    theta = rng.uniform(0, 2 * np.pi, spec.param_count)
    for b in (2, 3, 200):
        xs = rng.uniform(-1, 1, (b, 1))
        dL_dp = rng.normal(size=(b, 1 << n))
        tape = forward_batch(encode_batch(xs, spec), theta, spec)
        grads = backward_batch(backward_plan(tape), dL_dp * np.conj(tape.final))
        for i in range(b):
            one = single_tape(xs[i], theta, spec)
            single = backward_batch(backward_plan(one), dL_dp[i : i + 1] * np.conj(one.final))[0]
            assert np.abs(grads[i] - single).max() <= 1e-14


def _fastest_interleaved(first, second, reps):
    """Fastest of ``reps`` calls of each function, the calls alternating."""
    fastest = [math.inf, math.inf]
    for _ in range(reps):
        for i, fn in enumerate((first, second)):
            start = time.perf_counter()
            fn()
            fastest[i] = min(fastest[i], time.perf_counter() - start)
    return fastest


def test_backward_costs_at_most_three_forwards():
    # the forward and backward calls alternate and each side's fastest call
    # counts, so host load that lands on one side's calls cannot decide the ratio
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, (64, 2))
    for l in (5, 10, 20):
        spec = AnsatzSpec(4, l, feature_dim=2)
        encoded = encode_batch(xs, spec)
        theta = rng.uniform(0, 2 * np.pi, spec.param_count)
        tape = forward_batch(encoded, theta, spec)
        cotangent = rng.normal(size=(64, 16)) * np.conj(tape.final)
        t_fwd, t_bwd = _fastest_interleaved(
            lambda: forward_batch(encoded, theta, spec), lambda: backward_batch(backward_plan(tape), cotangent), 15
        )
        assert t_bwd <= 3.0 * t_fwd, f"l={l}: backward {t_bwd:.4f}s vs forward {t_fwd:.4f}s"


def test_hadamard_plan_matches_dense_walsh_hadamard():
    # integer-valued rows keep every partial sum exact, so the plan must equal
    # the dense product bit for bit; n = 1-10 gives 1, 2 and 3 blocks, and
    # so both buffers as the one that ends up holding the result
    rng = np.random.default_rng(13)
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    walsh = np.ones((1, 1))
    for n in range(1, 11):
        walsh = np.kron(walsh, h)
        rows = rng.integers(-8, 9, (3, 1 << n)) + 1j * rng.integers(-8, 9, (3, 1 << n))
        amps, work = rows.copy(), np.empty_like(rows)
        steps, result = hadamard_plan(amps, work)
        assert len(steps) == -(-n // HADAMARD_BLOCK)
        assert result is (work if len(steps) % 2 else amps)
        for step in steps:
            step()
        assert np.array_equal(result, rows @ walsh)
        # the plan transforms whatever amps holds when it runs
        amps[:] = result
        for step in steps:
            step()
        assert np.array_equal(result, rows * (1 << n))
