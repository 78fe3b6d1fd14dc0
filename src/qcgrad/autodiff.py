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

These conventions are validated end to end against central finite
differences (the binding oracle; see tests).
"""

from __future__ import annotations

import numpy as np

from . import gates
from .circuit import AnsatzSpec, BatchTape
from .state import apply_matrix, ring_signs


def _sublayer_grad_y(a: np.ndarray, s_out: np.ndarray, target: int, n: int) -> np.ndarray:
    # 2*Re[sum a * (dRy Ry^-1 s_out)] with dRy(t) Ry(t)^-1 = [[0,-1/2],[1/2,0]]
    lo = 1 << target
    hi = 1 << (n - 1 - target)
    av = a.reshape(a.shape[:-1] + (hi, 2, lo))
    sv = s_out.reshape(av.shape)
    z = av[..., 1, :] * sv[..., 0, :] - av[..., 0, :] * sv[..., 1, :]
    return z.real.sum(axis=(-2, -1))


def _sublayer_grad_z(a: np.ndarray, s_out: np.ndarray, target: int, n: int) -> np.ndarray:
    # 2*Re[sum a * (dRz Rz^-1 s_out)] with dRz(t) Rz(t)^-1 = diag(-i/2, i/2)
    lo = 1 << target
    hi = 1 << (n - 1 - target)
    av = a.reshape(a.shape[:-1] + (hi, 2, lo))
    sv = s_out.reshape(av.shape)
    z = av[..., 0, :] * sv[..., 0, :] - av[..., 1, :] * sv[..., 1, :]
    return z.imag.sum(axis=(-2, -1))


def _backward_arrays(
    posts: list[np.ndarray], theta: np.ndarray, spec: AnsatzSpec, a: np.ndarray
) -> np.ndarray:
    """Reverse walk over the gate groups; a and posts have shape (B, dim)."""
    n, l = spec.n_qubits, spec.depth_l
    grad = np.zeros(a.shape[:-1] + (spec.param_count,))
    idx = len(posts) - 1
    for k in range(l, -1, -1):
        base = 2 * n * k
        s_out = posts[idx]  # after the Z sub-layer of layer k
        for j in range(n):
            grad[..., base + 2 * j + 1] = _sublayer_grad_z(a, s_out, j, n)
        for j in range(n):
            a = apply_matrix(a, gates.rz(theta[base + 2 * j + 1]).T, j, n)
        idx -= 1
        s_out = posts[idx]  # after the Y sub-layer of layer k
        for j in range(n):
            grad[..., base + 2 * j] = _sublayer_grad_y(a, s_out, j, n)
        for j in range(n):
            a = apply_matrix(a, gates.ry(theta[base + 2 * j]).T, j, n)
        idx -= 1
        if k > 0:
            # entangler between layers k-1 and k: diagonal, equal to its transpose
            a = a * ring_signs(n)
            idx -= 1
    return grad


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
    return _backward_arrays(tape.posts, tape.theta, spec, a)
