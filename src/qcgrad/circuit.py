"""Input encoding, layered variational circuit, and the batch tape.

Circuit structure: an encoding block followed by ``depth_l + 1`` rotation
layers with a CZ-ring entangler between consecutive rotation layers.  Each
rotation layer splits into two commuting sub-layers: first every qubit's Y
rotation, then every qubit's Z rotation.  The simulation applies each
sub-layer as one fused operator: the Y sub-layer as one real Kronecker
matrix (a matmul per state), the Z sub-layer and the entangler after it as
one diagonal ``exp(-i/2 * Zsigns @ theta_z) * ring_signs``.  The tape keeps
the batch of states after every Y sub-layer, then the final state:

    [Y_0, Y_1, ..., Y_l, final]

for a total of ``depth_l + 2`` rows.  The state after a Z-plus-entangler
group is ``diag_k * Y_k``, so it is not kept: the backward pass needs only
the Y rows (see :mod:`qcgrad.autodiff`).  The last Z sub-layer has no
entangler after it.

Parameter layout (fixed; gradients use the same layout): layer-major, then
qubit-major, then (Y, Z) per qubit::

    theta[2*n*k + 2*j + 0]  ->  Y angle of qubit j in rotation layer k
    theta[2*n*k + 2*j + 1]  ->  Z angle of qubit j in rotation layer k

Input encoding: starting from |0...0>, every qubit gets ry(arcsin(x)) then
rz(arccos(x^2)), so the encoded state is the product state of the
single-qubit states ``[cos(y/2) e^{-iz/2}, sin(y/2) e^{iz/2}]``.
One-dimensional inputs are replicated on all qubits; two-dimensional inputs
place the first feature on even qubits and the second on odd qubits.  Inputs
outside [-1, 1], and NaN, are rejected rather than clamped — clamping would
silently corrupt the encoding, so dataset generators guarantee the range
instead.

Every simulation runs on a batch of shape ``(B, 2**n)``; a single input is
the batch ``x[None, :]``.  The batch may also be the 2**n basis rows, whose
final states are the rows of the circuit's operator (see
:mod:`qcgrad.trainer`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import KRON_BLOCK, apply_real_blocks, kron, ring_signs, z_sign_matrix


@dataclass(frozen=True)
class AnsatzSpec:
    """Circuit topology: qubit count, entangler-layer count, input dimension.

    ``depth_l`` counts entangler layers; there are ``depth_l + 1`` rotation
    layers, hence ``2 * n_qubits * (depth_l + 1)`` trainable angles.
    """

    n_qubits: int
    depth_l: int
    feature_dim: int = 1

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.depth_l < 0:
            raise ValueError(f"depth_l must be >= 0, got {self.depth_l}")
        if self.feature_dim not in (1, 2):
            raise ValueError(f"feature_dim must be 1 or 2, got {self.feature_dim}")
        if self.feature_dim == 2 and self.n_qubits < 2:
            raise ValueError("2-D inputs need at least 2 qubits")

    @property
    def param_count(self) -> int:
        return 2 * self.n_qubits * (self.depth_l + 1)

@dataclass(frozen=True)
class BatchTape:
    """One forward pass: (B, 2**n) states after every Y sub-layer and at the end, and the angles."""

    spec: AnsatzSpec
    posts: list[np.ndarray]
    theta: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.posts[-1]


def check_theta(theta: np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.param_count,):
        raise ValueError(
            f"expected {spec.param_count} parameters for n={spec.n_qubits}, "
            f"l={spec.depth_l}, got shape {theta.shape}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameters must be finite")
    return theta


def encode_angles(x: np.ndarray, spec: AnsatzSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit (Y, Z) encoding angles, each (B, n), of a (B, d) batch of inputs."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != spec.feature_dim:
        raise ValueError(f"expected {spec.feature_dim} feature(s), got shape {x.shape}")
    if not np.all(np.abs(x) <= 1.0):  # NaN fails too
        raise ValueError("encoded inputs must be finite and lie in [-1, 1]")
    if spec.feature_dim == 1:
        per_qubit = np.repeat(x[..., :1], spec.n_qubits, axis=-1)
    else:
        cols = [j % 2 for j in range(spec.n_qubits)]
        per_qubit = x[..., cols]
    return np.arcsin(per_qubit), np.arccos(per_qubit**2)


def encode_batch(xs: np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    """Encode a (B, d) batch of inputs into (B, 2**n) amplitudes."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"encode_batch takes a (B, d) array, got shape {xs.shape}")
    theta_y, theta_z = encode_angles(xs, spec)
    phase = np.exp(-0.5j * theta_z)
    qubits = np.stack([np.cos(0.5 * theta_y) * phase, np.sin(0.5 * theta_y) * np.conj(phase)], axis=-1)
    return kron(qubits[..., None]).reshape(len(xs), -1)


def rotation_phases(angles: np.ndarray, n_qubits: int) -> np.ndarray:
    """``exp(-i/2 * Zsigns @ angles)`` of (..., n) angles, one per qubit.

    This is the diagonal of one rz per qubit, and of one ry per qubit in the
    Y eigenbasis (see :mod:`qcgrad.autodiff`).
    """
    return np.exp(-0.5j * (angles @ z_sign_matrix(n_qubits).T))


def z_diagonals(theta: np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    """(l+1, 2**n) diagonals of every Z sub-layer and, except after the last, the ring."""
    angles = theta.reshape(spec.depth_l + 1, spec.n_qubits, 2)
    diags = rotation_phases(angles[:, :, 1], spec.n_qubits)
    diags[:-1] *= ring_signs(spec.n_qubits)
    return diags


def layer_operators(
    theta: np.ndarray, spec: AnsatzSpec
) -> list[tuple[tuple[np.ndarray, ...], np.ndarray]]:
    """(Y blocks, Z-and-entangler diagonal) of every rotation layer.

    The Y blocks split the Kronecker product of a layer's ry matrices into
    blocks of at most ``KRON_BLOCK`` qubits.  Each block is a column-major
    view: OpenBLAS ran these (dim, dim) @ (dim, 2) products about 1.7x
    faster so.
    """
    n, l = spec.n_qubits, spec.depth_l
    angles = theta.reshape(l + 1, n, 2)
    # kron gets ry^T: it builds the row-major transpose of each block
    c, s = np.cos(0.5 * angles[:, :, 0]), np.sin(0.5 * angles[:, :, 0])
    mats = np.stack([c, s, -s, c], axis=-1).reshape(l + 1, n, 2, 2)
    blocks = [kron(mats[:, q : q + KRON_BLOCK]).swapaxes(-1, -2) for q in range(0, n, KRON_BLOCK)]
    return list(zip(zip(*blocks), z_diagonals(theta, spec)))


def run_variational(
    encoded: np.ndarray, theta: np.ndarray, spec: AnsatzSpec, record: bool = True
) -> list[np.ndarray] | np.ndarray:
    """Apply the variational layers to encoded amplitudes of shape (B, dim).

    Returns the tape rows ``[Y_0, ..., Y_l, final]`` as a list when
    ``record`` is true, else just the final array.  This is the single code
    path behind the tape of :func:`forward_batch` and every loss-only
    evaluation.
    """
    amps = np.ascontiguousarray(encoded, dtype=complex)
    layers = layer_operators(check_theta(theta, spec), spec)
    # the rows are one allocation: many small ones freed together let the C
    # heap shrink and fault its pages back in on the next call.  They are the
    # tape, or one Y row and the final row when nothing is recorded
    rows = len(layers) + 1 if record else 2
    posts = np.empty((rows,) + amps.shape, dtype=complex)
    # the other buffer of a Y sub-layer split into Kronecker blocks
    work = np.empty_like(amps) if len(layers[0][0]) > 1 else None
    for k, (blocks, diag) in enumerate(layers):
        amps = apply_real_blocks(amps, blocks, posts[min(k, rows - 2)], work)
        # the final row holds each diag * Y_k until the next Y sub-layer reads it
        amps = np.multiply(amps, diag, out=posts[-1])
    return list(posts) if record else amps


def forward_batch(encoded: np.ndarray, theta: np.ndarray, spec: AnsatzSpec) -> BatchTape:
    """Run the variational layers on encoded amplitudes, recording the tape."""
    theta = check_theta(theta, spec)
    return BatchTape(spec, run_variational(encoded, theta, spec, record=True), theta)
