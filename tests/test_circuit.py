import numpy as np
import pytest
from conftest import single_tape

from qcgrad import gates
from qcgrad.circuit import (
    KRON_BLOCK,
    AnsatzSpec,
    encode_angles,
    encode_batch,
    forward_batch,
    layer_plan,
    ring_signs,
    run_variational,
    variational_plan,
)
from qcgrad.state import (
    QuantumState,
    apply_cz,
    apply_single_qubit,
    basis_state,
    kron,
    z_expectation,
)


def final_state(x, theta, spec):
    return QuantumState(spec.n_qubits, single_tape(x, theta, spec).final[0])


def build_layers(plan, theta):
    """The layers a :func:`layer_plan` writes at theta."""
    buffer, calls, layers = plan
    np.copyto(buffer, theta)
    for call in calls:
        call()
    return layers


def replay_encoding(x, spec):
    """Gate-by-gate encoding of one input: ry then rz on every qubit of |0...0>."""
    theta_y, theta_z = encode_angles(np.asarray(x, dtype=float)[None, :], spec)
    state = basis_state(spec.n_qubits, 0)
    for j in range(spec.n_qubits):
        state = apply_single_qubit(state, gates.ry(theta_y[0, j]), j)
        state = apply_single_qubit(state, gates.rz(theta_z[0, j]), j)
    return state


def replay_layers(state, theta, spec):
    """Gate-by-gate variational layers: ry and rz per qubit, then the CZ ring."""
    n = spec.n_qubits
    for k in range(spec.depth_l + 1):
        base = 2 * n * k
        for j in range(n):
            state = apply_single_qubit(state, gates.ry(theta[base + 2 * j]), j)
        for j in range(n):
            state = apply_single_qubit(state, gates.rz(theta[base + 2 * j + 1]), j)
        if k < spec.depth_l and n >= 2:
            for j in range(n):
                state = apply_cz(state, j, (j + 1) % n)
    return state


def test_spec_validation():
    with pytest.raises(ValueError):
        AnsatzSpec(0, 1)
    with pytest.raises(ValueError):
        AnsatzSpec(2, -1)
    with pytest.raises(ValueError):
        AnsatzSpec(2, 1, feature_dim=3)
    with pytest.raises(ValueError):
        AnsatzSpec(1, 1, feature_dim=2)
    # a float count used to construct and fail later, in a shift or np.empty
    for counts in ((2.5, 1), (2.0, 1, 2), (2, 1.0), (2, 1, 2.0)):
        with pytest.raises(TypeError, match="must be an integer"):
            AnsatzSpec(*counts)
    assert AnsatzSpec(np.int64(2), np.int64(1), np.int64(2)).param_count == 8


def test_param_count():
    assert AnsatzSpec(3, 3).param_count == 24
    assert AnsatzSpec(4, 6, feature_dim=2).param_count == 56
    assert AnsatzSpec(4, 20, feature_dim=2).param_count == 168


def test_encode_angles_rules():
    spec = AnsatzSpec(4, 0, feature_dim=2)
    ya, za = encode_angles(np.array([[0.0, 1.0]]), spec)
    # first feature on even qubits, second on odd qubits
    assert np.allclose(ya, [[0.0, np.pi / 2, 0.0, np.pi / 2]])
    assert np.allclose(za, [[np.pi / 2, 0.0, np.pi / 2, 0.0]])
    spec1 = AnsatzSpec(3, 0)
    ya1, za1 = encode_angles(np.array([[0.5]]), spec1)
    assert ya1.shape == za1.shape == (1, 3)
    assert np.allclose(ya1, np.arcsin(0.5))
    assert np.allclose(za1, np.arccos(0.25))


def test_encode_input_examples():
    enc = encode_batch(np.array([[0.0]]), AnsatzSpec(1, 0))
    assert np.allclose(enc[0], [np.exp(-0.25j * np.pi), 0], atol=1e-15)
    enc1 = encode_batch(np.array([[1.0]]), AnsatzSpec(1, 0))
    assert np.allclose(enc1[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_encode_input_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_batch(np.array([[1.0 + 1e-9]]), AnsatzSpec(1, 0))
    with pytest.raises(ValueError):
        encode_batch(np.array([[-2.0]]), AnsatzSpec(1, 0))
    with pytest.raises(ValueError):
        encode_batch(np.array([0.5]), AnsatzSpec(1, 0))  # a single input is a (1, d) batch
    with pytest.raises(ValueError, match=r"expected 1 feature\(s\)"):
        encode_batch(np.zeros((2, 2)), AnsatzSpec(2, 1))


def test_encode_input_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        encode_batch(np.array([[np.nan]]), AnsatzSpec(1, 0))


def test_encoding_matches_gate_by_gate_replay():
    rng = np.random.default_rng(9)
    worst = 0.0
    for n in range(1, 9):
        for feature_dim in (1, 2) if n >= 2 else (1,):
            spec = AnsatzSpec(n, 0, feature_dim=feature_dim)
            xs = rng.uniform(-1, 1, (6, feature_dim))
            encoded = encode_batch(xs, spec)
            for x, row in zip(xs, encoded):
                worst = max(worst, np.abs(row - replay_encoding(x, spec).amplitudes).max())
    assert worst <= 1e-15


def test_encode_batch_matches_single():
    rng = np.random.default_rng(0)
    spec = AnsatzSpec(3, 0, feature_dim=2)
    xs = rng.uniform(-1, 1, size=(9, 2))
    batch = encode_batch(xs, spec)
    for i in range(9):
        assert np.array_equal(batch[i], encode_batch(xs[i : i + 1], spec)[0])


def test_entangler_two_qubit_ring_is_identity():
    # brute-force matrix oracle: CZ(0,1) followed by CZ(1,0) multiplies to I
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    assert np.array_equal(cz @ cz, np.eye(4))
    assert np.array_equal(ring_signs(2), np.ones(4))
    # with identity rotations a depth-1 circuit applies the ring alone
    spec = AnsatzSpec(2, 1)
    encoded = encode_batch(np.array([[0.3]]), spec)
    assert np.array_equal(forward_batch(encoded, np.zeros(spec.param_count), spec).final, encoded)


def test_entangler_three_qubit_examples():
    signs = ring_signs(3)
    assert signs[7] == -1.0 and signs[0] == 1.0
    # CZ(0,1) CZ(1,2) CZ(2,0): (-1) to the number of ring-adjacent pairs of set bits
    assert np.array_equal(signs, [1, 1, 1, -1, 1, -1, -1, -1])


def test_entangler_single_qubit_is_identity():
    assert np.array_equal(ring_signs(1), np.ones(2))


def test_forward_group_structure():
    spec = AnsatzSpec(3, 3)
    theta = np.zeros(spec.param_count)
    tape = single_tape([0.3], theta, spec)
    # 4 rotation layers: the state after each Y sub-layer, then the final state
    assert len(tape.posts) == 4 + 1 == spec.depth_l + 2
    assert all(post.shape == (1, 8) for post in tape.posts)
    assert tape.final is tape.posts[-1]
    spec0 = AnsatzSpec(2, 0)
    tape0 = single_tape([0.1], np.zeros(4), spec0)
    assert len(tape0.posts) == 2 == spec0.depth_l + 2


def test_forward_identity_rotations_keep_encoded_state():
    spec = AnsatzSpec(1, 0)
    encoded = encode_batch(np.array([[0.0]]), spec)
    assert np.array_equal(forward_batch(encoded, np.zeros(2), spec).final, encoded)


def test_forward_single_qubit_z_expectation_is_cosine():
    spec = AnsatzSpec(1, 0)
    for t in (0.3, np.pi / 3, 2.1):
        final = final_state([0.0], np.array([t, 0.0]), spec)
        assert abs(z_expectation(final, 0) - np.cos(t)) < 1e-12


def test_fused_final_state_matches_gate_by_gate_replay():
    # n = 7, 8 split the Y sub-layer into more than one Kronecker block
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in range(1, 9):
        for l in range(0, 5):
            spec = AnsatzSpec(n, l)
            theta = rng.uniform(0, 2 * np.pi, spec.param_count)
            encoded = encode_batch(rng.uniform(-1, 1, (1, 1)), spec)
            state = replay_layers(QuantumState(n, encoded[0]), theta, spec)
            worst = max(worst, np.abs(state.amplitudes - forward_batch(encoded, theta, spec).final[0]).max())
    assert worst <= 1e-14


@pytest.mark.parametrize("n", range(1, 9))
def test_layer_blocks_equal_the_kron_of_the_ry_matrices(n):
    # a layer plan spreads each block's 2**m magnitudes over its entries;
    # every entry, sign bit and stride must be what kron builds from the
    # stacked ry^T matrices, in fresh arrays and in kept ones that a kept
    # plan writes over.  n = 7 and 8 split a layer into two blocks
    rng = np.random.default_rng(30 + n)
    for l in (0, 3):
        spec = AnsatzSpec(n, l)
        plan = layer_plan(spec, 2)
        kept = plan[2]
        for theta in (np.zeros(spec.param_count), rng.uniform(0, 2 * np.pi, spec.param_count)):
            fresh = build_layers(layer_plan(spec, 2), theta)
            assert build_layers(plan, theta) is kept
            for got, expected in zip([*kept[0], kept[1]], [*fresh[0], fresh[1]]):
                got, expected = got.view(float), expected.view(float)  # the diagonals' parts too
                assert got.strides == expected.strides
                assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))
            half = 0.5 * theta.reshape(l + 1, n, 2)[:, :, 0]
            c, s = np.cos(half), np.sin(half)
            ry_t = np.stack([c, s, -s, c], axis=-1).reshape(l + 1, n, 2, 2)
            expected = [
                kron(np.ascontiguousarray(ry_t[:, q : q + KRON_BLOCK])).swapaxes(-1, -2)
                for q in range(0, n, KRON_BLOCK)
            ]
            blocks, _ = build_layers(layer_plan(spec, 2), theta)
            assert len(blocks) == len(expected) == (1 if n <= KRON_BLOCK else 2)
            for block, reference in zip(blocks, expected):
                # the strides of each layer's matrix, which its matmuls see
                assert block.shape == reference.shape and block.strides[1:] == reference.strides[1:]
                assert np.array_equal(block, reference)
                assert np.array_equal(np.signbit(block), np.signbit(reference))


@pytest.mark.parametrize("n", range(1, 9))
def test_recording_and_loss_only_forwards_agree(n):
    # the loss-only forward keeps one Y row, which at n = 7 and 8 (two
    # Kronecker blocks) it alternates with the work buffer; its final rows
    # must be the tape's, on encoded inputs and on the basis rows alike
    rng = np.random.default_rng(40 + n)
    for l in (0, 3):
        spec = AnsatzSpec(n, l)
        theta = rng.uniform(0, 2 * np.pi, spec.param_count)
        for rows in (encode_batch(rng.uniform(-1, 1, (5, 1)), spec), np.eye(1 << n, dtype=complex)):
            tape = forward_batch(rows, theta, spec).posts
            assert len(tape) == l + 2
            plan = variational_plan(rows, spec, record=False)
            assert np.array_equal(run_variational(rows, theta, spec, record=False, plan=plan), tape[-1])


def test_batch_rows_equal_single_runs_at_five_and_six_qubits():
    # beyond the n <= 4 of the property tests: each row is its own matmul
    rng = np.random.default_rng(10)
    for n in (5, 6):
        for l in range(0, 4):
            spec = AnsatzSpec(n, l)
            theta = rng.uniform(0, 2 * np.pi, spec.param_count)
            for b in (2, 3, 4, 200):
                xs = rng.uniform(-1, 1, (b, 1))
                encoded = encode_batch(xs, spec)
                tape = forward_batch(encoded, theta, spec)
                for i in range(b):
                    single = single_tape(xs[i], theta, spec)
                    assert np.array_equal(encoded[i], encode_batch(xs[i : i + 1], spec)[0])
                    for post, single_post in zip(tape.posts, single.posts, strict=True):
                        assert np.array_equal(post[i], single_post[0])


def test_forward_determinism():
    rng = np.random.default_rng(4)
    spec = AnsatzSpec(4, 3, feature_dim=2)
    x = rng.uniform(-1, 1, 2)
    theta = rng.uniform(0, 2 * np.pi, spec.param_count)
    t1, t2 = single_tape(x, theta, spec), single_tape(x, theta, spec)
    assert np.array_equal(t1.final, t2.final)
    for a, b in zip(t1.posts, t2.posts):
        assert np.array_equal(a, b)


def test_forward_final_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        l = int(rng.integers(0, 4))
        spec = AnsatzSpec(n, l)
        theta = rng.uniform(0, 2 * np.pi, spec.param_count)
        final = final_state(rng.uniform(-1, 1, 1), theta, spec)
        assert final.norm_error() < 1e-12


def test_theta_validation():
    spec = AnsatzSpec(2, 1)
    with pytest.raises(ValueError):
        single_tape([0.0], np.zeros(5), spec)
    bad = np.zeros(spec.param_count)
    bad[2] = np.nan
    with pytest.raises(ValueError):
        single_tape([0.0], bad, spec)


def test_forward_batch_matches_forward():
    rng = np.random.default_rng(6)
    spec = AnsatzSpec(3, 2, feature_dim=2)
    xs = rng.uniform(-1, 1, (5, 2))
    theta = rng.uniform(0, 2 * np.pi, spec.param_count)
    encoded = encode_batch(xs, spec)
    bt = forward_batch(encoded, theta, spec)
    assert len(bt.posts) == spec.depth_l + 2
    for i in range(5):
        tape = single_tape(xs[i], theta, spec)
        assert np.array_equal(bt.final[i], tape.final[0])
        assert np.array_equal(encoded[i], encode_batch(xs[i : i + 1], spec)[0])


def test_readout_is_odd_between_x_plus_and_minus_one():
    # Every gate commutes with the antiunitary Y^{(x)n} K, so U^dag Z_0 U has
    # only odd-weight Pauli terms; under this encoding that makes the
    # regression output 2<Z_0> satisfy f(1) = -f(-1) for every theta.
    rng = np.random.default_rng(8)
    largest = 0.0
    for n in range(1, 6):
        for l in range(0, 7):
            spec = AnsatzSpec(n, l)
            for _ in range(3):
                theta = rng.uniform(0, 2 * np.pi, spec.param_count)
                plus = 2 * z_expectation(final_state([1.0], theta, spec), 0)
                minus = 2 * z_expectation(final_state([-1.0], theta, spec), 0)
                assert abs(plus + minus) <= 1e-12
                largest = max(largest, abs(plus))
    assert largest > 0.5  # rules out a readout that is identically zero
