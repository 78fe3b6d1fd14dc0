import numpy as np
import pytest

from qcgrad import AnsatzSpec, TrainConfig, gates, gen_function_dataset, gen_moons, run_benchmark
from qcgrad.state import (
    QuantumState,
    apply_cz,
    apply_single_qubit,
    basis_state,
    marginal,
    probabilities,
    z_expectation,
)


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return QuantumState(n, amps / np.linalg.norm(amps))


def random_unitary_2x2(rng):
    # generic SU(2) element up to phase, built from the gate constructors
    a, b, c = rng.uniform(-np.pi, np.pi, size=3)
    return gates.ry(a) @ gates.rz(b) @ gates.ry(c)


def kron_oracle(n, gate, target):
    """Full 2^n matrix for a single-qubit gate: qubit q occupies bit q."""
    u = np.eye(1, dtype=complex)
    for q in reversed(range(n)):
        u = np.kron(u, gate if q == target else np.eye(2))
    return u


def test_basis_state_examples():
    assert np.array_equal(basis_state(1, 0).amplitudes, [1, 0])
    assert np.array_equal(basis_state(2, 3).amplitudes, [0, 0, 0, 1])
    s = basis_state(3, 1)
    assert s.amplitudes[1] == 1 and np.abs(s.amplitudes).sum() == 1


def test_basis_state_rejects_bad_index():
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(2, -1)
    with pytest.raises(ValueError):
        basis_state(0, 0)
    with pytest.raises(TypeError, match="basis index must be an integer, got 1.0"):
        basis_state(2, 1.0)
    with pytest.raises(TypeError, match="n_qubits must be an integer, got 2.0"):
        basis_state(2.0, 1)
    assert basis_state(np.int64(2), np.int64(3)).amplitudes[3] == 1.0


#: test id -> (name, a call that passes ``value`` through ``as_index`` as that name)
INDEX_ARGUMENTS = {
    "n_qubits": ("n_qubits", lambda value: AnsatzSpec(n_qubits=value, depth_l=1)),
    "depth_l": ("depth_l", lambda value: AnsatzSpec(n_qubits=2, depth_l=value)),
    "feature_dim": ("feature_dim", lambda value: AnsatzSpec(n_qubits=2, depth_l=1, feature_dim=value)),
    "iterations": ("iterations", lambda value: TrainConfig(iterations=value)),
    "init_seed": ("init_seed", lambda value: TrainConfig(init_seed=value)),
    "count": ("count", lambda value: gen_function_dataset("sine", count=value)),
    "repeats": ("repeats", lambda value: run_benchmark(
        ["backprop"], [(2, 0)], gen_moons(count=4), TrainConfig(iterations=1), repeats=value
    )),
    "qubit index": ("qubit index", lambda value: z_expectation(basis_state(2, 0), value)),
    "basis index": ("basis index", lambda value: basis_state(2, value)),
    "basis_state n_qubits": ("n_qubits", lambda value: basis_state(value, 0)),
}


@pytest.mark.parametrize("value", [True, False, np.True_])
@pytest.mark.parametrize("case", list(INDEX_ARGUMENTS))
def test_a_bool_is_not_an_index(case, value):
    # operator.index takes Python's True as 1, and a flag must not run as a count
    name, call = INDEX_ARGUMENTS[case]
    with pytest.raises(TypeError, match=f"{name} must be an integer, got {value!r}"):
        call(value)


def test_quantum_state_shape_validation():
    with pytest.raises(ValueError):
        QuantumState(2, np.ones(3, dtype=complex))
    with pytest.raises(TypeError, match="n_qubits must be an integer, got 2.0"):
        QuantumState(2.0, np.ones(4))
    with pytest.raises(ValueError, match="n_qubits must be >= 1"):
        QuantumState(0, np.ones(1))


def test_apply_single_qubit_examples():
    assert np.allclose(apply_single_qubit(basis_state(1, 0), gates.ry(np.pi), 0).amplitudes, [0, 1], atol=1e-15)
    theta = 0.83
    after = apply_single_qubit(basis_state(1, 0), gates.rz(theta), 0)
    assert np.allclose(after.amplitudes, [np.exp(-0.5j * theta), 0], atol=1e-15)
    assert np.allclose(probabilities(after), [1, 0], atol=1e-15)
    s = random_state(np.random.default_rng(0), 3)
    assert np.array_equal(apply_single_qubit(s, np.eye(2), 1).amplitudes, s.amplitudes)


def test_apply_single_qubit_matches_kron_oracle():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for target in range(n):
            s = random_state(rng, n)
            gate = random_unitary_2x2(rng)
            got = apply_single_qubit(s, gate, target).amplitudes
            want = kron_oracle(n, gate, target) @ s.amplitudes
            assert np.allclose(got, want, atol=1e-13)


def test_apply_single_qubit_validation():
    s = basis_state(2, 0)
    with pytest.raises(ValueError):
        apply_single_qubit(s, np.eye(2), 2)
    with pytest.raises(ValueError):
        apply_single_qubit(s, np.eye(3), 0)


def test_apply_cz_examples():
    assert np.array_equal(apply_cz(basis_state(2, 3), 0, 1).amplitudes, [0, 0, 0, -1])
    # |10> renders qubit 1 as 1, qubit 0 as 0; CZ leaves it alone
    assert np.array_equal(apply_cz(basis_state(2, 2), 0, 1).amplitudes, [0, 0, 1, 0])
    uniform = QuantumState(2, np.full(4, 0.5, dtype=complex))
    assert np.array_equal(apply_cz(uniform, 0, 1).amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_apply_cz_symmetric_and_involutive():
    rng = np.random.default_rng(9)
    for _ in range(50):
        s = random_state(rng, 3)
        once = apply_cz(s, 0, 2)
        assert np.array_equal(apply_cz(once, 2, 0).amplitudes, s.amplitudes)


def test_apply_cz_rejects_equal_qubits():
    with pytest.raises(ValueError):
        apply_cz(basis_state(2, 0), 1, 1)


def test_probabilities_examples():
    assert np.allclose(probabilities(basis_state(1, 0)), [1, 0])
    plus = QuantumState(1, np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(probabilities(plus), [0.5, 0.5])
    uniform = QuantumState(3, np.full(8, 1 / np.sqrt(8), dtype=complex))
    assert np.allclose(probabilities(uniform), np.full(8, 0.125))


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 5):
        for _ in range(25):
            assert abs(probabilities(random_state(rng, n)).sum() - 1.0) < 1e-12


def test_marginal_basis_string_grouping():
    # basis string "001" (index 1 on 3 qubits) has its first qubit observed as 1
    p0, p1 = marginal(basis_state(3, 1), 0)
    assert (p0, p1) == (0.0, 1.0)
    # direct enumeration of the first-qubit groups by rendered bit string
    zero_group = [j for j in range(8) if format(j, "03b")[-1] == "0"]
    one_group = [j for j in range(8) if format(j, "03b")[-1] == "1"]
    assert zero_group == [0, 2, 4, 6] and one_group == [1, 3, 5, 7]
    rng = np.random.default_rng(4)
    s = random_state(rng, 3)
    p = probabilities(s)
    p0, p1 = marginal(s, 0)
    assert abs(p0 - p[zero_group].sum()) < 1e-12
    assert abs(p1 - p[one_group].sum()) < 1e-12
    for j in range(8):
        p0, p1 = marginal(basis_state(3, j), 0)
        expected = (1.0, 0.0) if j in zero_group else (0.0, 1.0)
        assert (p0, p1) == expected


def test_marginal_uniform_and_sums():
    uniform = QuantumState(3, np.full(8, 1 / np.sqrt(8), dtype=complex))
    for q in range(3):
        p0, p1 = marginal(uniform, q)
        assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12
    assert marginal(basis_state(1, 0), 0) == (1.0, 0.0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        s = random_state(rng, 4)
        for q in range(4):
            p0, p1 = marginal(s, q)
            assert abs(p0 + p1 - 1.0) < 1e-12


def test_z_expectation_examples():
    assert z_expectation(basis_state(3, 0), 1) == 1.0
    uniform = QuantumState(2, np.full(4, 0.5, dtype=complex))
    assert abs(z_expectation(uniform, 0)) < 1e-12
    theta = np.pi / 3
    s = apply_single_qubit(basis_state(1, 0), gates.ry(theta), 0)
    assert abs(z_expectation(s, 0) - np.cos(theta)) < 1e-12


def test_z_expectation_bounded():
    rng = np.random.default_rng(6)
    for _ in range(200):
        s = random_state(rng, 3)
        for q in range(3):
            assert -1.0 - 1e-12 <= z_expectation(s, q) <= 1.0 + 1e-12


def test_norm_preservation_sweep():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        s = random_state(rng, n)
        target = int(rng.integers(0, n))
        after = apply_single_qubit(s, random_unitary_2x2(rng), target)
        worst = max(worst, after.norm_error())
    assert worst < 1e-12
