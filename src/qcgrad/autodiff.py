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

Basis rows.  In row convention the circuit is ``final = psi @ P``, so with
``a_b`` the cotangent of sample b the whole batch's gradient reads dP only
through ``sum_b psi_b dP a_b^T``.  With ``Psi`` the (B, 2**n) encoded batch,
``A`` its cotangents and ``e_r`` the basis rows,

    sum_b psi_b dP a_b^T  =  sum_r e_r dP (Psi^T A)_r^T,

a plain transpose, no conjugate.  So the summed gradient of B samples is the
summed gradient of the 2**n rows of a tape recorded from the identity, with
the cotangent ``Psi^T A``.  :func:`backward_batch` therefore takes the
complex cotangent itself; its caller forms ``dL_dp * conj(final)`` or
``encoded.T @ A``, and the walk below is the same for either.  In training,
``dL_dp = dL/d<Z> @ signs``: the head's dL/d<Z> spread over the same +/-1
sign rows of its qubits that measured <Z> from p, ``<Z> = p @ signs[i]``
(see :class:`qcgrad.trainer.CircuitObjective`).

The walk visits the rotation layers of :mod:`qcgrad.circuit` in reverse and
reads the tape rows ``Y_k``, the states after each Y sub-layer.

Z sub-layer and entangler.  ``ZE_k = diag_k * Y_k`` is a diagonal, its own
transpose.  dRz(t) Rz(t)^-1 = diag(-i/2, i/2) on qubit q, so with ``a`` the
cotangent after it, 2*Re[sum_j a_j (-i/2) Zsigns[j, q] ZE_k[j]] makes the
whole sub-layer's Z gradient one product, ``Im(a * ZE_k) @ Zsigns``.  As
``a * ZE_k = (diag_k * a) * Y_k``, that is ``Im(a_Y * Y_k) @ Zsigns`` with
``a_Y = diag_k * a`` the cotangent after the Y sub-layer, so the tape keeps
no ZE rows.  The ring's +/-1 signs only enter through ``diag_k``.

Y sub-layer, in the Y eigenbasis.  ``ry(t) = w diag(e^{-it/2}, e^{it/2}) w^dag``
with ``w = S H``, S = diag(1, i) and H = [[1, 1], [1, -1]] / sqrt(2), so the
sub-layer is ``K = W D_y W^dag`` with ``W = S^{(x)n} H^{(x)n}`` and
``D_y = exp(-i/2 * Zsigns @ theta_y)``, the same form as a Z sub-layer.
``S^{(x)n}`` is the diagonal ``i**popcount(j)``.  dK/dt_q K^-1 =
W diag(-i/2 * Zsigns[:, q]) W^dag, so with ``ã = W^T a_Y = H^{(x)n} (S a_Y)``
and ``s̃ = W^dag Y_k = H^{(x)n} (S* Y_k)`` the sub-layer's Y gradient is again
one product, ``Im(ã * s̃) @ Zsigns``.  The cotangent step
``K^T a_Y = S* H^{(x)n} (D_y ã)`` reuses ã.

The walk carries ``v = S a_Y`` instead of ``a_Y``, so that S and S* cancel
between layers: ``ã = H^{(x)n} v``, then ``v <- diag_{k-1} * H^{(x)n} (D_y ã)``,
and the Z gradients are ``Im(v * t) @ Zsigns`` with ``t = S* Y_k``.  A layer
thus costs three Walsh-Hadamard transforms (``[ã, s̃] = H^{(x)n} [v, t]`` in
one matmul, then ``H^{(x)n} (D_y ã)``), each the same fixed real matrix for
every layer and call, plus elementwise products.  The first layer skips the
cotangent step, whose result nothing reads.  The transforms use +/-1 entries,
a factor 2**(n/2) each; the 2**-n this leaves per product and per round trip
is folded into the Y signs and into ``D_y``, exactly, as a power of two.

These conventions are validated end to end against central finite
differences (the binding oracle; see tests).
"""

from __future__ import annotations

import numpy as np

from .circuit import BatchTape, rotation_phases, z_diagonals
from .state import apply_hadamard, s_phases, z_sign_matrix


def backward_batch(tape: BatchTape, cotangent: np.ndarray) -> np.ndarray:
    """Per-row gradients, shape (R, param_count), from a tape of R rows.

    The circuit is the one the tape was recorded for, ``tape.spec``.
    ``cotangent`` has the tape's shape (R, 2**n) and holds the complex
    cotangent of each row's final amplitudes: ``dL_dp * conj(tape.final)``
    for a tape of the inputs themselves, or ``encoded.T @ A`` for a tape of
    the basis rows (see the module docstring).  The result is real with the
    parameter layout of :mod:`qcgrad.circuit`.
    """
    cotangent = np.asarray(cotangent, dtype=complex)
    if cotangent.shape != tape.final.shape:
        raise ValueError(
            f"cotangent shape {cotangent.shape} does not match batch shape {tape.final.shape}"
        )
    spec = tape.spec
    n, l, (b, dim) = spec.n_qubits, spec.depth_l, cotangent.shape
    # H below has +/-1 entries, so ã * s̃ and H D H each carry 2**n too many
    scale = 0.5**n
    # Im(...) @ Zsigns of the [ã * s̃, v * t] products, read from their float
    # view: a contiguous matmul against signs on the imaginary parts only
    signs = np.zeros((2, dim, 2, n))
    signs[:, :, 1] = z_sign_matrix(n) * np.array([scale, 1.0])[:, None, None]
    signs = signs.reshape(2, 2 * dim, n)
    y_phases = rotation_phases(tape.theta.reshape(l + 1, n, 2)[:, :, 0], n) * scale
    diags = z_diagonals(tape.theta, spec)
    # one allocation for every buffer of the walk (see state.apply_hadamard):
    # rows [v, t] = [S a, S* s] of the current layer, so that one H gives
    # [ã, s̃]; the [ã * s̃, v * t] products; H's other buffer; S* as a full
    # (B, dim) factor, since numpy multiplies a broadcast short row about 2x slower
    work = np.empty((7, b, dim), dtype=complex)
    vt, products, h_work, s_conj = work[:2], work[2:4], work[4:6], work[6]
    v, t = vt
    vt_rows, h_rows = vt.reshape(2 * b, dim), h_work.reshape(2 * b, dim)
    s_conj[:] = np.conj(s_phases(n))
    np.multiply(cotangent, diags[l] * s_phases(n), out=v)
    grad = np.empty((b, l + 1, n, 2))
    for k in range(l, -1, -1):
        np.multiply(tape.posts[k], s_conj, out=t)
        np.multiply(v, t, out=products[1])
        a_tilde, s_tilde = apply_hadamard(vt_rows, h_rows).reshape(2, b, dim)
        np.multiply(a_tilde, s_tilde, out=products[0])
        np.matmul(products.view(float), signs, out=grad[:, k].transpose(2, 0, 1))
        if k:
            # products is free again: it holds D_y ã and H's other buffer
            u = np.multiply(a_tilde, y_phases[k], out=products[0])
            np.multiply(apply_hadamard(u, products[1]), diags[k - 1], out=v)
    return grad.reshape(b, -1)
