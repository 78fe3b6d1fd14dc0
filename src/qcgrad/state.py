"""Dense complex statevector, gate-application kernels, and Pauli-Z readout.

Bit/string convention
---------------------
Qubit ``q`` occupies bit position ``q`` of the basis index, so the binary
rendering of index ``j`` writes qubit 0 as the LAST (rightmost) character.
"The first qubit" therefore means qubit 0, the rightmost bit: the basis
string ``"001"`` (index 1 on three qubits) has its first qubit in state 1.
This convention is forced by the marginal-probability grouping used for the
Z readout and is documented prominently because binary-string endianness is
otherwise ambiguous.

The circuit runs whole layers at once on batches of shape ``(B, 2**n)``:
:func:`kron` builds the dense real matrix of one rotation per qubit (and the
encoded product states), :func:`apply_real_blocks` applies it with one
matmul per state and block of at most :data:`KRON_BLOCK` qubits, and a
diagonal layer is an elementwise product.

:func:`apply_matrix` applies one 2x2 matrix to one qubit; the
:class:`QuantumState` operations are value-in/value-out single-state
operations built on it and on :func:`cz_signs`, and serve as the gate-by-gate
reference the circuit is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Tolerance for norm / probability-sum checks (double precision accumulated
#: over at most ~2^20 terms).
NORM_ATOL = 1e-12


def apply_matrix(amps: np.ndarray, gate: np.ndarray, target: int, n_qubits: int) -> np.ndarray:
    """Apply a 2x2 matrix to ``target`` of a ``(..., 2**n_qubits)`` array.

    The matrix is not required to be unitary.  Returns a new array.
    """
    lead = amps.shape[:-1]
    lo = 1 << target
    hi = 1 << (n_qubits - 1 - target)
    v = amps.reshape(lead + (hi, 2, lo))
    a0 = v[..., 0, :]
    a1 = v[..., 1, :]
    out = np.empty_like(v)
    out[..., 0, :] = gate[0, 0] * a0 + gate[0, 1] * a1
    out[..., 1, :] = gate[1, 0] * a0 + gate[1, 1] * a1
    return out.reshape(amps.shape)


#: Most qubits one dense rotation matrix spans.  A dense matrix over m
#: qubits costs O(4**m) per state against O(m 2**m) for one gate at a time,
#: so larger registers are split into blocks of at most this many qubits.
KRON_BLOCK = 6


def kron(mats: np.ndarray) -> np.ndarray:
    """Kronecker products of (..., m, r, c) stacks, ``mats[..., q, :, :]`` acting on qubit q.

    Qubit q is bit q of the row and column index, so the last matrix is the
    leftmost factor.  With ``c == 1`` the columns are single-qubit states
    and the result is their product state.
    """
    out = mats[..., -1, :, :]
    for q in range(mats.shape[-3] - 2, -1, -1):
        prod = out[..., :, None, :, None] * mats[..., q, None, :, None, :]
        out = prod.reshape(prod.shape[:-4] + (-1, prod.shape[-2] * prod.shape[-1]))
    return out


def apply_real_blocks(
    amps: np.ndarray, blocks: tuple[np.ndarray, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """Apply real block matrices to a C-contiguous ``(B, 2**n)`` complex array.

    ``blocks[0]`` acts on the lowest qubits, each next block on the qubits
    above the previous one.  Each state is its own matmul over the real and
    imaginary parts, so a row's result never depends on the other rows; one
    (2B, 2**n) matmul would not keep that.  Writes the result to ``out``
    (C-contiguous, same shape) when given, else returns a new array.
    """
    b, dim = amps.shape
    lo = 1
    for i, mat in enumerate(blocks):
        m = len(mat)
        view = amps.view(float).reshape(b, dim // (m * lo), m, 2 * lo)
        last = out is not None and i == len(blocks) - 1
        amps = np.matmul(mat, view, out=out.view(float).reshape(view.shape) if last else None)
        amps = amps.reshape(b, 2 * dim).view(complex)
        lo *= m
    return amps


@lru_cache(maxsize=None)
def cz_signs(n_qubits: int, qubit_a: int, qubit_b: int) -> np.ndarray:
    """Diagonal of CZ between two qubits as a cached +/-1 vector."""
    idx = np.arange(1 << n_qubits)
    both = ((idx >> qubit_a) & 1) & ((idx >> qubit_b) & 1)
    signs = 1.0 - 2.0 * both
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=None)
def ring_signs(n_qubits: int) -> np.ndarray:
    """Diagonal of the full CZ ring, qubit j to (j+1) mod n for every j.

    Sign flips are exact in floating point, so multiplying by this combined
    diagonal is bit-identical to applying the ring's CZ gates one by one.
    For n < 2 the ring is empty and this is all ones.
    """
    signs = np.ones(1 << n_qubits)
    if n_qubits >= 2:
        for j in range(n_qubits):
            signs = signs * cz_signs(n_qubits, j, (j + 1) % n_qubits)
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=None)
def z_sign_vector(n_qubits: int, qubit: int) -> np.ndarray:
    """+1 where ``qubit``'s bit of the basis index is 0, -1 where it is 1."""
    idx = np.arange(1 << n_qubits)
    signs = 1.0 - 2.0 * ((idx >> qubit) & 1)
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=None)
def z_sign_matrix(n_qubits: int) -> np.ndarray:
    """(2**n, n) matrix whose column q is :func:`z_sign_vector` of qubit q."""
    signs = np.stack([z_sign_vector(n_qubits, q) for q in range(n_qubits)], axis=1)
    signs.flags.writeable = False
    return signs


@dataclass(frozen=True)
class QuantumState:
    """Length-2**n complex amplitude vector over the computational basis.

    Valid states are unit norm; unitary operations preserve the norm within
    :data:`NORM_ATOL`.  The amplitudes array is treated as immutable.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes for {self.n_qubits} "
                f"qubit(s), got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm_error(self) -> float:
        """|sum of |a|^2  -  1|, for invariant checks."""
        return abs(float(np.sum(np.abs(self.amplitudes) ** 2)) - 1.0)


def _check_qubit(n_qubits: int, qubit: int, name: str = "qubit") -> int:
    qubit = int(qubit)
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"{name} index {qubit} out of range for {n_qubits} qubit(s)")
    return qubit


def basis_state(n_qubits: int, index: int) -> QuantumState:
    """Computational-basis state |index> with amplitude 1 at that index."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubit(s)")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return QuantumState(n_qubits, amps)


def apply_single_qubit(state: QuantumState, gate: np.ndarray, target: int) -> QuantumState:
    """Apply a 2x2 matrix to the target qubit; norm preserved when unitary."""
    target = _check_qubit(state.n_qubits, target, "target")
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2, 2):
        raise ValueError(f"gate must be 2x2, got shape {gate.shape}")
    return QuantumState(state.n_qubits, apply_matrix(state.amplitudes, gate, target, state.n_qubits))


def apply_cz(state: QuantumState, control: int, target: int) -> QuantumState:
    """Negate amplitudes whose control and target bits are both 1."""
    control = _check_qubit(state.n_qubits, control, "control")
    target = _check_qubit(state.n_qubits, target, "target")
    if control == target:
        raise ValueError(f"control and target must differ, both are {control}")
    return QuantumState(state.n_qubits, state.amplitudes * cz_signs(state.n_qubits, control, target))


def probabilities(state: QuantumState) -> np.ndarray:
    """Observation probability of every basis state: p[j] = |a[j]|^2."""
    return np.abs(state.amplitudes) ** 2


def marginal(state: QuantumState, qubit: int) -> tuple[float, float]:
    """(p0, p1) of observing one qubit, summed over all other qubits."""
    qubit = _check_qubit(state.n_qubits, qubit)
    p = probabilities(state)
    lo = 1 << qubit
    hi = 1 << (state.n_qubits - 1 - qubit)
    grouped = p.reshape(hi, 2, lo)
    p0 = float(grouped[:, 0, :].sum())
    p1 = float(grouped[:, 1, :].sum())
    return p0, p1


def z_expectation(state: QuantumState, qubit: int) -> float:
    """<Z> of one qubit: (+1)*p0 + (-1)*p1, always in [-1, 1]."""
    p0, p1 = marginal(state, qubit)
    return p0 - p1
