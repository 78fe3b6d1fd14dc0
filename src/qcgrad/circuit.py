"""Input encoding, layered variational circuit, and the batch tape.

Circuit structure: an encoding block followed by ``depth_l + 1`` rotation
layers with a CZ-ring entangler between consecutive rotation layers.  Each
rotation layer splits into two commuting sub-layers: first every qubit's Y
rotation, then every qubit's Z rotation.  The simulation applies each
sub-layer as one fused operator: the Y sub-layer as one real Kronecker
matrix (a matmul per state), the Z sub-layer and the entangler after it as
one diagonal ``exp(-i/2 * Zsigns @ theta_z) * ring_signs``.  The tape
records the batch of states after every fused group, i.e. the group
sequence is

    [Y_0, ZE_0, Y_1, ZE_1, ..., Y_l, Z_l]

for a total of ``2*(depth_l + 1)`` recorded states after the encoded state
(the last Z sub-layer has no entangler after it), plus the transposed
operators the reverse walk applies.

Parameter layout (fixed; gradients use the same layout): layer-major, then
qubit-major, then (Y, Z) per qubit::

    theta[2*n*k + 2*j + 0]  ->  Y angle of qubit j in rotation layer k
    theta[2*n*k + 2*j + 1]  ->  Z angle of qubit j in rotation layer k

Input encoding: starting from |0...0>, every qubit gets ry(arcsin(x)) then
rz(arccos(x^2)), so the encoded state is the product state of the
single-qubit states ``[cos(y/2) e^{-iz/2}, sin(y/2) e^{iz/2}]``.
One-dimensional inputs are replicated on all qubits; two-dimensional inputs
place the first feature on even qubits and the second on odd qubits.  Inputs
outside [-1, 1] are rejected rather than clamped — clamping would silently
corrupt the encoding, so dataset generators guarantee the range instead.

Every simulation runs on a batch of shape ``(B, 2**n)``; a single input is
the batch ``x[None, :]``.
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

    @property
    def group_count(self) -> int:
        """Number of recorded groups: a Y and a Z-plus-entangler group per rotation layer."""
        return 2 * (self.depth_l + 1)


@dataclass(frozen=True)
class BatchTape:
    """Per-group states (B, 2**n) of one forward pass and the reverse walk's layer operators."""

    spec: AnsatzSpec
    encoded: np.ndarray
    posts: list[np.ndarray]
    transposed: list[tuple[tuple[np.ndarray, ...], np.ndarray]]

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
    if np.any(np.abs(x) > 1.0):
        raise ValueError("encoded inputs must lie in [-1, 1]")
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


def layer_operators(
    theta: np.ndarray, spec: AnsatzSpec, transpose: bool = False
) -> list[tuple[tuple[np.ndarray, ...], np.ndarray]]:
    """(Y blocks, Z-and-entangler diagonal) of every rotation layer.

    The Y blocks split the Kronecker product of a layer's ry matrices (its
    transpose with ``transpose``, for the reverse walk) into blocks of at
    most ``KRON_BLOCK`` qubits.  Each block is a column-major view: OpenBLAS
    ran these (dim, dim) @ (dim, 2) products about 1.7x faster so.  The
    diagonal holds the rz phases and, except after the last layer, the ring.
    """
    n, l = spec.n_qubits, spec.depth_l
    angles = theta.reshape(l + 1, n, 2)
    # kron gets ry^T (ry when transpose): it builds the row-major transpose of each block
    c, s = np.cos(0.5 * angles[:, :, 0]), np.sin(0.5 * angles[:, :, 0]) * (1 if transpose else -1)
    mats = np.stack([c, -s, s, c], axis=-1).reshape(l + 1, n, 2, 2)
    blocks = [kron(mats[:, q : q + KRON_BLOCK]).swapaxes(-1, -2) for q in range(0, n, KRON_BLOCK)]
    diags = np.exp(-0.5j * (angles[:, :, 1] @ z_sign_matrix(n).T))
    diags[:-1] *= ring_signs(n)
    return list(zip(zip(*blocks), diags))


def run_variational(
    encoded: np.ndarray, theta: np.ndarray, spec: AnsatzSpec, record: bool = True
) -> list[np.ndarray] | np.ndarray:
    """Apply the variational layers to encoded amplitudes of shape (B, dim).

    Returns the list of post-group arrays when ``record`` is true, else just
    the final array.  This is the single code path behind the tape of
    :func:`forward_batch` and every loss-only evaluation.
    """
    amps = np.ascontiguousarray(encoded, dtype=complex)
    layers = layer_operators(check_theta(theta, spec), spec)
    # the tape is one allocation: many small ones freed together let the C
    # heap shrink and fault its pages back in on the next call
    shape = (2 * len(layers),) + amps.shape
    posts = np.empty(shape, dtype=complex) if record else [None] * shape[0]
    for k, (blocks, diag) in enumerate(layers):
        amps = apply_real_blocks(amps, blocks, out=posts[2 * k])
        amps = np.multiply(amps, diag, out=posts[2 * k + 1])
    return list(posts) if record else amps


def forward_batch(encoded: np.ndarray, theta: np.ndarray, spec: AnsatzSpec) -> BatchTape:
    """Run the variational layers on encoded amplitudes, recording every group."""
    theta = check_theta(theta, spec)
    posts = run_variational(encoded, theta, spec, record=True)
    return BatchTape(spec, encoded, posts, layer_operators(theta, spec, transpose=True))
