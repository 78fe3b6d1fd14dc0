import numpy as np
import pytest

from qcgrad import gates
from qcgrad.state import cz_signs

I2 = np.eye(2)

# The backward pass differentiates through d/dt R(t) = G R(t), with the
# generators hard-coded in autodiff's per-sub-layer gradient sums.
G_Y = np.array([[0.0, -0.5], [0.5, 0.0]])
G_Z = np.diag([-0.5j, 0.5j])


def d_ry(theta):
    return G_Y @ gates.ry(theta)


def d_rz(theta):
    return G_Z @ gates.rz(theta)


def test_ry_examples():
    assert np.allclose(gates.ry(0.0), I2, atol=1e-15)
    assert np.allclose(gates.ry(np.pi), [[0, -1], [1, 0]], atol=1e-15)
    s = 1 / np.sqrt(2)
    assert np.allclose(gates.ry(np.pi / 2), [[s, -s], [s, s]], atol=1e-15)


def test_rz_examples():
    assert np.allclose(gates.rz(0.0), I2, atol=1e-15)
    assert np.allclose(gates.rz(np.pi), np.diag([-1j, 1j]), atol=1e-15)
    assert np.allclose(gates.rz(2 * np.pi), np.diag([-1, -1]), atol=1e-15)


def test_d_ry_examples():
    assert np.allclose(d_ry(0.0), 0.5 * np.array([[0, -1], [1, 0]]), atol=1e-15)
    assert np.allclose(d_ry(np.pi), 0.5 * np.array([[-1, 0], [0, -1]]), atol=1e-15)


def test_d_rz_examples():
    assert np.allclose(d_rz(0.0), np.diag([-0.5j, 0.5j]), atol=1e-15)
    # (-i/2)e^{-i pi/2} = -1/2 and (i/2)e^{+i pi/2} = -1/2
    assert np.allclose(d_rz(np.pi), np.diag([-0.5, -0.5]), atol=1e-15)


@pytest.mark.parametrize("deriv,base", [(d_ry, gates.ry), (d_rz, gates.rz)])
def test_derivatives_match_central_differences(deriv, base):
    rng = np.random.default_rng(7)
    h = 1e-6
    for theta in rng.uniform(-10, 10, size=100):
        numeric = (base(theta + h) - base(theta - h)) / (2 * h)
        assert np.abs(deriv(theta) - numeric).max() < 1e-9


def test_unitarity_sweep():
    rng = np.random.default_rng(11)
    worst = 0.0
    for theta in rng.uniform(-10, 10, size=1000):
        for gate in (gates.ry(theta), gates.rz(theta)):
            worst = max(worst, np.abs(gate.conj().T @ gate - I2).max())
    assert worst < 1e-12


def test_rz_composition():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.uniform(-10, 10, size=2)
        assert np.abs(gates.rz(a) @ gates.rz(b) - gates.rz(a + b)).max() < 1e-12


def test_non_finite_angle_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            gates.ry(bad)
        with pytest.raises(ValueError):
            gates.rz(bad)


def test_cz_matrix():
    assert np.array_equal(np.diag(cz_signs(2, 0, 1)), np.diag([1, 1, 1, -1]))
    assert np.array_equal(cz_signs(2, 0, 1), cz_signs(2, 1, 0))
