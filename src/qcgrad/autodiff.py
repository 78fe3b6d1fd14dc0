"""Exact reverse-mode gradients of probability-based losses through the circuit.

For a real loss L that depends on the final amplitudes c only through the
observation probabilities p_j = |c_j|^2, the chain rule collapses to

    dL/dtheta = 2 * Re[ sum_j (dL/dp_j) * conj(c_j) * dc_j/dtheta ].

Everything inside the bracket is an ordinary (holomorphic) derivative of c,
so the cotangent seeded as ``a_j = (dL/dp_j) * conj(c_j)`` back-propagates
through each unitary U with the plain transpose, ``a <- U^T a`` — no
conjugation anywhere, and a plain (non-conjugated) dot product against the
gate derivative when a parameter is reached.  The conjugate half of |c|^2
is absorbed entirely by the single 2*Re[...].

The walk visits the fused groups of :mod:`qcgrad.circuit` in reverse.  A
Z-plus-entangler group is a diagonal, its own transpose.  dRz(t) Rz(t)^-1 =
diag(-i/2, i/2) on qubit q, so with ``a`` and ``s`` the cotangent and state
after the group, 2*Re[sum_j a_j (-i/2) Zsigns[j, q] s_j] makes the whole
sub-layer's Z gradient one product, ``Im(a * s) @ Zsigns``.  The ring drops
out: it multiplies ``a`` and ``s`` by the same +/-1 signs, which square to 1.
A Y group is a real matrix: its cotangent step is the transposed matmul, and
its Y gradients pair each amplitude with its partner across every qubit.

These conventions are validated end to end against central finite
differences (the binding oracle; see tests).
"""

from __future__ import annotations

import numpy as np

from .circuit import AnsatzSpec, BatchTape
from .state import apply_real_blocks, z_sign_matrix


def backward_batch(tape: BatchTape, dL_dp: np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    """Per-sample gradients, shape (B, param_count), from a batch tape.

    ``dL_dp`` has the tape's shape (B, 2**n) and holds dL/dp_j for every
    basis index j (zero where the readout does not observe).  The result is
    real with the parameter layout of :mod:`qcgrad.circuit`.
    """
    if tape.spec != spec:
        raise ValueError(f"tape was built for {tape.spec}, not {spec}")
    dL_dp = np.asarray(dL_dp, dtype=float)
    if dL_dp.shape != tape.final.shape:
        raise ValueError(
            f"cotangent shape {dL_dp.shape} does not match batch shape {tape.final.shape}"
        )
    a = dL_dp * np.conj(tape.final)
    n, posts, zsigns = spec.n_qubits, tape.posts, z_sign_matrix(spec.n_qubits)
    flips = np.arange(a.shape[1]) ^ (1 << np.arange(n))[:, None]  # [q, i]: i with bit q flipped
    grad = np.empty((len(a), spec.depth_l + 1, n, 2))
    # one buffer for the (B, n, dim) pair products of every layer: a fresh
    # temporary of that size per layer costs page faults once B*n*dim grows
    pairs = np.empty((len(a), n, a.shape[1]), dtype=complex)
    for k in range(spec.depth_l, -1, -1):
        blocks, diag = tape.transposed[k]
        grad[:, k, :, 1] = (a * posts[2 * k + 1]).imag @ zsigns
        a = a * diag
        # dRy(t) Ry(t)^-1 = [[0,-1/2],[1/2,0]] on qubit q, so with s the state
        # after the Y group, 2*Re[a . (G_q s)] = sum_i z_q(i) Re(a[i ^ 2**q] s[i])
        np.take(a, flips, axis=1, out=pairs, mode="clip")
        np.multiply(pairs, posts[2 * k][:, None, :], out=pairs)
        grad[:, k, :, 0] = np.einsum("bqi,iq->bq", pairs.real, zsigns)
        a = apply_real_blocks(a, blocks)
    return grad.reshape(len(a), -1)
