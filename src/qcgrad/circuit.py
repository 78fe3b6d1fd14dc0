"""Input encoding, layered variational circuit, and the batch tape.

Circuit structure: an encoding block followed by ``depth_l + 1`` rotation
layers with a CZ-ring entangler between consecutive rotation layers.  Each
rotation layer splits into two commuting sub-layers on the tape: first every
qubit's Y rotation, then every qubit's Z rotation.  The tape records the
batch of states after every gate group, i.e. the group sequence is

    [Y_0, Z_0, ENT, Y_1, Z_1, ENT, ..., Y_l, Z_l]

for a total of ``3*depth_l + 2`` recorded states after the encoded state.

Parameter layout (fixed; gradients use the same layout): layer-major, then
qubit-major, then (Y, Z) per qubit::

    theta[2*n*k + 2*j + 0]  ->  Y angle of qubit j in rotation layer k
    theta[2*n*k + 2*j + 1]  ->  Z angle of qubit j in rotation layer k

Input encoding: starting from |0...0>, every qubit gets ry(arcsin(x)) then
rz(arccos(x^2)).  One-dimensional inputs are replicated on all qubits;
two-dimensional inputs place the first feature on even qubits and the second
on odd qubits.  Inputs outside [-1, 1] are rejected rather than clamped —
clamping would silently corrupt the encoding, so dataset generators
guarantee the range instead.

Every simulation runs on a batch of shape ``(B, 2**n)``; a single input is
the batch ``x[None, :]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates
from .state import apply_matrix, apply_matrix_elems, ring_signs


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
        """Number of recorded gate groups: 2*(l+1) rotation sub-layers + l entanglers."""
        return 3 * self.depth_l + 2


@dataclass(frozen=True)
class BatchTape:
    """Per-group states of one forward pass: amplitude arrays of shape (B, 2**n)."""

    spec: AnsatzSpec
    theta: np.ndarray
    encoded: np.ndarray
    posts: list[np.ndarray]

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
    """Per-qubit (Y, Z) encoding angles for inputs of shape (d,) or (B, d)."""
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
    n = spec.n_qubits
    amps = np.zeros((len(xs), 1 << n), dtype=complex)
    amps[:, 0] = 1.0
    for j in range(n):
        c = np.cos(0.5 * theta_y[:, j])
        s = np.sin(0.5 * theta_y[:, j])
        amps = apply_matrix_elems(amps, c, -s, s, c, j, n)
        p = np.exp(-0.5j * theta_z[:, j])
        zero = np.zeros_like(p)
        amps = apply_matrix_elems(amps, p, zero, zero, np.conj(p), j, n)
    return amps


def run_variational(
    encoded: np.ndarray, theta: np.ndarray, spec: AnsatzSpec, record: bool = True
) -> list[np.ndarray] | np.ndarray:
    """Apply the variational layers to encoded amplitudes of shape (B, dim).

    Returns the list of post-group arrays when ``record`` is true, else just
    the final array.  This is the single code path behind the tape of
    :func:`forward_batch` and every loss-only evaluation.
    """
    n, l = spec.n_qubits, spec.depth_l
    amps = encoded
    posts: list[np.ndarray] = []
    for k in range(l + 1):
        base = 2 * n * k
        for j in range(n):
            amps = apply_matrix(amps, gates.ry(theta[base + 2 * j]), j, n)
        if record:
            posts.append(amps)
        for j in range(n):
            amps = apply_matrix(amps, gates.rz(theta[base + 2 * j + 1]), j, n)
        if record:
            posts.append(amps)
        if k < l:
            amps = amps * ring_signs(n)
            if record:
                posts.append(amps)
    return posts if record else amps


def forward_batch(encoded: np.ndarray, theta: np.ndarray, spec: AnsatzSpec) -> BatchTape:
    """Run the variational layers on encoded amplitudes, recording every group."""
    theta = check_theta(theta, spec)
    posts = run_variational(encoded, theta, spec, record=True)
    return BatchTape(spec=spec, theta=theta, encoded=encoded, posts=posts)
