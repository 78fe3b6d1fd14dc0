"""Dense complex statevector, shared batch kernels, and Pauli-Z readout.

Bit/string convention
---------------------
Qubit ``q`` occupies bit position ``q`` of the basis index, so the binary
rendering of index ``j`` writes qubit 0 as the LAST (rightmost) character.
"The first qubit" therefore means qubit 0, the rightmost bit: the basis
string ``"001"`` (index 1 on three qubits) has its first qubit in state 1.
This convention is forced by the marginal-probability grouping used for the
Z readout and is documented prominently because binary-string endianness is
otherwise ambiguous.

The kernels here serve the forward pass (:mod:`qcgrad.circuit`), the
backward pass (:mod:`qcgrad.autodiff`) and the objective
(:mod:`qcgrad.trainer`), on batches of shape ``(B, 2**n)``.  :func:`kron`
builds Kronecker products: the encoded product states and the
Walsh-Hadamard blocks.  :func:`real_block_view` lets a matmul apply a real
block of qubits to each state separately, and :func:`apply_operator`
applies a whole circuit's dense operator, again one matmul per state.
:func:`z_sign_matrix` is the one table of Z signs: the readout, the
rotation phases, the gradient signs and :func:`cz_signs` read it.

:func:`apply_matrix` applies one 2x2 matrix to one qubit; the
:class:`QuantumState` operations are value-in/value-out single-state
operations built on it and on :func:`cz_signs`, and serve as the gate-by-gate
reference the circuit is tested against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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


def real_block_view(amps: np.ndarray, m: int, lo: int = 1) -> np.ndarray:
    """Float view of C-contiguous ``(..., B, 2**n)`` complex states for one real block.

    The block is an (m, m) matrix on the qubits from bit ``log2(lo)`` up.
    The view has shape ``(..., B, 2**n // (m * lo), m, 2 * lo)``, so that
    ``np.matmul(block, view)`` is one matmul per state over its real and
    imaginary parts: a row's result never depends on the other rows, which
    one (2B, 2**n) matmul would not keep.
    """
    return amps.view(float).reshape(amps.shape[:-1] + (amps.shape[-1] // (m * lo), m, 2 * lo))


def operator_plan(amps: np.ndarray) -> tuple[np.ndarray, tuple, np.ndarray]:
    """``(real, step, out)``: the buffers and the matmul of :func:`apply_operator` on ``amps``.

    ``real`` is a (2**n, 2, 2**n) complex buffer for ``[P, 1j * P]``, whose
    float view is the real (2 * 2**n, 2 * 2**n) form of P: row r of P
    acting on the real part, then on the imaginary part.  ``np.matmul(*step)``
    writes ``amps @ P`` into ``out``.
    """
    dim = amps.shape[1]
    real = np.empty((dim, 2, dim), dtype=complex)
    out = np.empty_like(amps)
    step = (amps.view(float)[:, None, :], real.view(float).reshape(2 * dim, 2 * dim), out.view(float)[:, None, :])
    return real, step, out


def apply_operator(amps: np.ndarray, operator: np.ndarray, plan: tuple | None = None) -> np.ndarray:
    """``amps @ operator`` of C-contiguous (B, 2**n) states and a (2**n, 2**n) matrix.

    As in :func:`real_block_view`, each state is its own matmul over the
    real and imaginary parts, so a row's result never depends on the other
    rows.  After a warm-up, the first products grew the resident set by
    40 KB in this real form, by 232 KB as complex per-state products and by
    428 KB as one flat complex GEMM (numpy 2.4 with OpenBLAS, 2 vCPUs).

    ``plan``, from :func:`operator_plan` on these ``amps``, serves every
    call on them; the result is then its ``out`` buffer.  Without one, the
    call plans for itself.
    """
    real, step, out = operator_plan(amps) if plan is None else plan
    real[:, 0] = operator
    np.multiply(operator, 1j, out=real[:, 1])
    np.matmul(*step)
    return out


@lru_cache(maxsize=None)
def z_sign_matrix(n_qubits: int) -> np.ndarray:
    """(2**n, n) table whose column q is +1 where qubit q's bit of the basis
    index is 0 and -1 where it is 1: the diagonal of Z on qubit q."""
    signs = 1.0 - 2.0 * ((np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits)) & 1)
    signs.flags.writeable = False
    return signs


def z_sign_vector(n_qubits: int, qubit: int) -> np.ndarray:
    """Column ``qubit`` of :func:`z_sign_matrix`, checked.

    Raises ValueError for a qubit outside ``0 <= qubit < n_qubits``, and
    TypeError for one that is not an integer.
    """
    return z_sign_matrix(n_qubits)[:, _check_qubit(n_qubits, qubit)]


def cz_signs(n_qubits: int, qubit_a: int, qubit_b: int) -> np.ndarray:
    """Diagonal of CZ between two qubits: -1 only where both Z signs are -1."""
    signs = z_sign_matrix(n_qubits)
    return np.maximum(signs[:, qubit_a], signs[:, qubit_b])


@dataclass(frozen=True)
class QuantumState:
    """Length-2**n complex amplitude vector over the computational basis.

    Valid states are unit norm; unitary operations preserve the norm within
    1e-12.  The amplitudes array is treated as immutable.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if as_index(self.n_qubits, "n_qubits") < 1:
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


def as_index(value, name: str) -> int:
    """``value`` as an int, through ``operator.index``: numpy integers pass,
    and a float raises TypeError naming ``name`` rather than being truncated.

    A bool raises the same TypeError: ``operator.index`` rejects numpy's
    ``np.True_`` but takes Python's ``True`` as 1, so a flag passed where a
    count belongs would otherwise run as one.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _check_qubit(n_qubits: int, qubit: int, name: str = "qubit") -> int:
    qubit = as_index(qubit, f"{name} index")
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"{name} index {qubit} out of range for {n_qubits} qubit(s)")
    return qubit


def basis_state(n_qubits: int, index: int) -> QuantumState:
    """Computational-basis state |index> with amplitude 1 at that index."""
    if as_index(n_qubits, "n_qubits") < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    dim = 1 << n_qubits
    if not 0 <= as_index(index, "basis index") < dim:
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
