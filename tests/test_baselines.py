import numpy as np
import pytest

from qcgrad import gates
from qcgrad.baselines import finite_difference_grad, spsa_grad, spsa_perturbation_size
from qcgrad.state import apply_single_qubit, basis_state, z_expectation


class CountingLoss:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, theta):
        self.calls += 1
        return self.fn(theta)


def test_fd_constant_function():
    f = CountingLoss(lambda th: 3.5)
    grad = finite_difference_grad(f, np.zeros(4), 1e-5)
    assert np.array_equal(grad, np.zeros(4))
    assert f.calls == 8


def test_fd_quadratic_is_exact():
    f = lambda th: float(np.sum(th**2))
    grad = finite_difference_grad(f, np.array([1.0, 2.0]), 1e-5)
    assert np.abs(grad - [2.0, 4.0]).max() < 1e-8


def test_fd_single_ry_circuit():
    def loss(th):
        s = apply_single_qubit(basis_state(1, 0), gates.ry(th[0]), 0)
        return z_expectation(s, 0)

    grad = finite_difference_grad(loss, np.array([np.pi / 2]), 1e-5)
    assert abs(grad[0] + 1.0) < 1e-9  # -sin(pi/2)


def test_fd_validation():
    for h in (0.0, -1e-5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step size"):
            finite_difference_grad(lambda th: 0.0, np.zeros(2), h)
    with pytest.raises(ArithmeticError):
        finite_difference_grad(lambda th: float("nan"), np.zeros(2), 1e-5)
    # 1e13 + 1e-4 rounds back to 1e13, so both losses would be one evaluation
    f = CountingLoss(lambda th: 0.0)
    with pytest.raises(ArithmeticError, match=r"coordinate 0 = 10000000000000\.0 does not move"):
        finite_difference_grad(f, np.array([1e13, 0.5]), 1e-4)
    assert f.calls == 0


def test_non_finite_losses_name_where_they_were_evaluated():
    # FD's coordinate and sign, and SPSA's iteration and sign, of the first
    # non-finite value, in these exact words
    def message(call):
        with pytest.raises(ArithmeticError) as error:
            call()
        return str(error.value)

    def nan_at(coordinate, step):
        return lambda th: float("nan") if th[coordinate] == step else 0.0

    for coordinate, step, label in ((0, 1e-4, "+h"), (2, 1e-4, "+h"), (2, -1e-4, "-h")):
        fd = lambda: finite_difference_grad(nan_at(coordinate, step), np.zeros(4), 1e-4)
        assert message(fd) == f"loss evaluated to a non-finite value at coordinate {coordinate}, {label}"
    for k, bad_call, label in ((7, 1, "+c_k"), (3, 2, "-c_k")):
        f = CountingLoss(lambda th: 0.0)
        f.fn = lambda th: float("inf") if f.calls == bad_call else 0.0
        assert message(lambda: spsa_grad(f, np.zeros(3), k, 0)) == (
            f"loss evaluated to a non-finite value at iteration {k}, {label}"
        )


def test_fd_evaluation_count():
    for size in (1, 5, 12):
        f = CountingLoss(lambda th: float(th @ th))
        finite_difference_grad(f, np.ones(size), 1e-4)
        assert f.calls == 2 * size


def test_spsa_constant_function():
    f = CountingLoss(lambda th: 1.0)
    grad = spsa_grad(f, np.zeros(6), 0, 0)
    assert np.array_equal(grad, np.zeros(6))
    assert f.calls == 2


def test_spsa_two_evaluations_per_estimate():
    f = CountingLoss(lambda th: float(np.sum(th**2)))
    spsa_grad(f, np.ones(9), 3, 1)
    assert f.calls == 2


def test_spsa_deterministic_per_seed_and_iteration():
    f = lambda th: float(np.sum(th**3))
    theta = np.array([0.2, -0.4, 0.1])
    g1 = spsa_grad(f, theta, 2, 5)
    g2 = spsa_grad(f, theta, 2, 5)
    g3 = spsa_grad(f, theta, 3, 5)
    assert np.array_equal(g1, g2)
    assert not np.array_equal(g1, g3)


def test_spsa_mean_approaches_true_gradient_on_linear_function():
    # for linear f the estimate is v*Delta/Delta_m, unbiased around v
    v = np.array([0.8, -1.2, 1.0])
    theta = np.array([0.3, -0.5, 0.2])
    f = lambda th: float(v @ th)
    total = np.zeros(3)
    draws = 10_000
    for seed in range(draws):
        total += spsa_grad(f, theta, 0, seed)
    mean = total / draws
    assert np.all(np.abs(mean - v) <= 0.05 * np.abs(v))


def test_spsa_perturbation_decays_monotonically():
    sizes = [spsa_perturbation_size(k) for k in range(100)]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert sizes[0] == 0.1


def test_spsa_validation():
    with pytest.raises(ValueError):
        spsa_grad(lambda th: 0.0, np.zeros(2), -1, 0)
    with pytest.raises(ArithmeticError):
        spsa_grad(lambda th: float("inf"), np.zeros(2), 0, 0)
    # c_0 = 0.1 still moves 1e13 (its ulp is 2**-9) but rounds away at 1e16
    f = CountingLoss(lambda th: 0.0)
    spsa_grad(f, np.array([1e13, 0.5]), 0, 0)
    with pytest.raises(ArithmeticError, match=r"coordinate 0 = 1e\+16 does not move"):
        spsa_grad(f, np.array([1e16, 0.5]), 0, 0)
    assert f.calls == 2
