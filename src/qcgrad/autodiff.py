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
``S^{(x)n}`` is the diagonal :func:`s_phases`.  dK/dt_q K^-1 =
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

Both transforms are planned with :func:`hadamard_plan`, as the matmul
steps of their blocks on the walk's fixed buffers, and every other call of
the walk is bound to its operands up front too, tape row k, gradient row k,
Y phase k and diagonal k - 1 included, in a :func:`backward_plan` made on
one tape, whose arrays, theta too, it reads on every call.
``CircuitObjective`` makes it once, on its one tape of its recording
forward plan's buffers, and every other caller once per call.  The walk is
then one loop over the bound calls, per layer ``t``, ``v * t``, H,
``ã * s̃``, the sign matmul, ``D_y ã``, H and the next diagonal, with one
more matmul per transform for each Walsh-Hadamard block beyond the first
(n > :data:`HADAMARD_BLOCK`).
At n = 4 on the 16 basis rows a backward pass at l = 20 takes about 143 µs,
6.8 µs per layer, where indexing each layer's operands on every call took
about 158 µs (median of 31 rounds of 200 calls, numpy 2.4 with OpenBLAS,
2 vCPUs).

These conventions are validated end to end against central finite
differences (the binding oracle; see tests).
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .circuit import BatchTape, rotation_phases
from .state import kron, real_block_view, z_sign_matrix


#: Most qubits one Walsh-Hadamard block of the backward pass spans.  The
#: widened lowest block costs O(4**m) per state: with B=200, two 3-qubit
#: blocks ran the backward pass at n=6 1.6-1.9x faster than one 6-qubit
#: block.  At n = 4, 5 and 7-10 limits of 4-6 were within noise of each
#: other, and a limit of 3 was slower at n = 4, 8 and 10.
HADAMARD_BLOCK = 4


@lru_cache(maxsize=None)
def hadamard_blocks(n_qubits: int) -> tuple[np.ndarray, ...]:
    """Unnormalised Walsh-Hadamard blocks (entries +/-1) over all ``n_qubits``, lowest first.

    The qubits split into as few blocks of at most :data:`HADAMARD_BLOCK` as
    possible, with sizes differing by at most one.  The lowest block is
    widened to ``H (x) I_2`` so that it acts on the interleaved real and
    imaginary parts of the float view.
    """
    count = -(-n_qubits // HADAMARD_BLOCK)
    h = np.broadcast_to(np.array([[1.0, 1.0], [1.0, -1.0]]), (HADAMARD_BLOCK, 2, 2))
    blocks = [np.ascontiguousarray(kron(h[: (n_qubits + i) // count])) for i in range(count)]
    blocks[0] = np.kron(blocks[0], np.eye(2))
    for block in blocks:
        block.flags.writeable = False
    return tuple(blocks)


def hadamard_plan(amps: np.ndarray, work: np.ndarray) -> tuple[list[partial], np.ndarray]:
    """Plan ``H^{(x)n}`` with +/-1 entries (applying it twice multiplies by 2**n).

    ``amps`` and ``work`` are C-contiguous ``(R, 2**n)`` complex arrays.
    Returns ``(steps, result)``: calling each bound matmul step in turn
    transforms whatever ``amps`` holds at that time and leaves it in
    ``result``, so a plan made once serves every transform of a call.  The
    lowest block is one flat GEMM over all rows, so a row's last bits may
    depend on the other rows: unlike the forward pass, which keeps each row
    equal bit for bit to its B=1 run (see :mod:`qcgrad.circuit`), the
    backward pass only has to match its B=1 runs to 1e-14, and one flat GEMM
    is the faster way to get there.  The blocks above it multiply each row
    separately.  The blocks write to ``amps`` and ``work`` in turn, so
    nothing is allocated: fresh temporaries of this size made the C heap
    shrink and fault its pages back in, about 2,000 page faults per backward
    pass at n=8, B=200, and the arrays themselves are kept for every call in
    the :func:`backward_plan` of ``CircuitObjective``.  The steps overwrite
    both arrays; ``result`` is ``work`` when the blocks are odd in number,
    else ``amps``.
    """
    first, *rest = hadamard_blocks(amps.shape[1].bit_length() - 1)
    flat = (-1, len(first))
    steps = [partial(np.matmul, amps.view(float).reshape(flat), first, work.view(float).reshape(flat))]
    lo = len(first) // 2
    for block in rest:
        amps, work = work, amps
        m = len(block)
        steps.append(partial(np.matmul, block, real_block_view(amps, m, lo), real_block_view(work, m, lo)))
        lo *= m
    return steps, work


@lru_cache(maxsize=None)
def s_phases(n_qubits: int) -> np.ndarray:
    """Diagonal of ``S^{(x)n}``, S = diag(1, i): ``i**popcount(j)`` for every basis index j."""
    popcount = (n_qubits - z_sign_matrix(n_qubits).sum(axis=1).astype(int)) // 2
    phases = np.array([1, 1j, -1, -1j])[popcount % 4]
    phases.flags.writeable = False
    return phases


@lru_cache(maxsize=None)
def _gradient_signs(n_qubits: int) -> np.ndarray:
    """(2, 2 * 2**n, n) read-only signs of ``Im(...) @ Zsigns`` for the [ã * s̃, v * t] products.

    They are read from the products' float view: a contiguous matmul against
    signs on the imaginary parts only.  H has +/-1 entries, so ã * s̃ carries
    2**n too many, which the first row's 2**-n takes out.
    """
    signs = np.zeros((2, 1 << n_qubits, 2, n_qubits))
    signs[:, :, 1] = z_sign_matrix(n_qubits) * np.array([0.5**n_qubits, 1.0])[:, None, None]
    signs = signs.reshape(2, -1, n_qubits)
    signs.flags.writeable = False
    return signs


def backward_plan(tape: BatchTape) -> tuple:
    """``(tape, setup, seed, v, calls, grad)``: the buffers and bound calls of :func:`backward_batch` on ``tape``.

    Every call reads the tape's own arrays, its rows ``[Y_0, ..., Y_l,
    final]``, theta and diagonals, so the plan serves every run recorded
    into them, as the objective's one tape is (see :mod:`qcgrad.trainer`).
    ``setup`` writes the Y phases from theta and the seed diagonal ``seed``
    from the last diagonal; the cotangent times ``seed`` is the first ``v``.
    ``calls`` is the whole walk after it, with the operands of each layer k
    bound once: tape row k, gradient row k, Y phase k and diagonal k - 1.
    ``grad`` holds the (R, l+1, n, 2) result.
    """
    spec, posts, diags = tape.spec, tape.posts, tape.diags
    n, l, dim = spec.n_qubits, spec.depth_l, 1 << spec.n_qubits
    count = len(posts[0])
    # one allocation for every buffer of the walk (see hadamard_plan):
    # rows [v, t] = [S a, S* s] of the current layer, so that one H gives
    # [ã, s̃]; the [ã * s̃, v * t] products; H's other buffer; S* as a full
    # (B, dim) factor, since numpy multiplies a broadcast short row about 2x slower
    work = np.empty((7, count, dim), dtype=complex)
    vt, products, h_work, s_conj = work[:2], work[2:4], work[4:6], work[6]
    v, t = vt
    # both transforms are planned once: [v, t] -> [ã, s̃], and D_y ã in the
    # products, which are free by then, back to the new v
    vt_plan, vt_tilde = hadamard_plan(vt.reshape(2 * count, dim), h_work.reshape(2 * count, dim))
    a_tilde, s_tilde = vt_tilde.reshape(2, count, dim)
    ab_product, vt_product = products
    u_plan, h_u = hadamard_plan(ab_product, vt_product)
    s_conj[:] = np.conj(s_phases(n))
    y_phases, seed = np.empty((l + 1, dim), dtype=complex), np.empty(dim, dtype=complex)
    setup = [
        partial(rotation_phases, tape.theta.reshape(l + 1, n, 2)[:, :, 0], n, y_phases, np.empty(y_phases.shape)),
        # H has +/-1 entries, so H D H carries 2**n too many
        partial(np.multiply, y_phases, 0.5**n, y_phases),
        partial(np.multiply, diags[l], s_phases(n), seed),
    ]
    grad = np.empty((count, l + 1, n, 2))
    # row k of the transpose is layer k's (2, count, n) [Y, Z] gradients
    grad_rows = grad.transpose(1, 3, 0, 2)
    signs, floats = _gradient_signs(n), products.view(float)
    # the calls every layer makes alike: v * t, H [v, t] = [ã, s̃], ã * s̃, and H (D_y ã)
    vt_calls = [partial(np.multiply, v, t, vt_product), *vt_plan, partial(np.multiply, a_tilde, s_tilde, ab_product)]
    calls = []
    for k in range(l, -1, -1):
        # t = S* Y_k, then the gradients from [ã * s̃, v * t]
        calls += [partial(np.multiply, posts[k], s_conj, t), *vt_calls, partial(np.matmul, floats, signs, grad_rows[k])]
        if k:  # the next v, diag_{k-1} * H (D_y ã); the first layer's would go unread
            calls += [partial(np.multiply, a_tilde, y_phases[k], ab_product), *u_plan]
            calls.append(partial(np.multiply, h_u, diags[k - 1], v))
    return tape, setup, seed, v, calls, grad


def backward_batch(tape: BatchTape, cotangent: np.ndarray, plan: tuple | None = None) -> np.ndarray:
    """Per-row gradients, shape (R, param_count), from a tape of R rows.

    The circuit is the one the tape was recorded for, ``tape.spec``.
    ``cotangent`` has the tape's shape (R, 2**n) and holds the complex
    cotangent of each row's final amplitudes: ``dL_dp * conj(tape.final)``
    for a tape of the inputs themselves, or ``encoded.T @ A`` for a tape of
    the basis rows (see the module docstring).  The result is real with the
    parameter layout of :mod:`qcgrad.circuit`.

    ``plan``, from :func:`backward_plan` on this same tape, is the one its
    caller keeps for every call: the result is then a view of its buffer,
    overwritten by the next call, and a plan made on another tape raises
    ValueError.  Without a plan, the call plans for itself.
    """
    cotangent = np.asarray(cotangent, dtype=complex)
    if cotangent.shape != tape.final.shape:
        raise ValueError(
            f"cotangent shape {cotangent.shape} does not match batch shape {tape.final.shape}"
        )
    planned, setup, seed, v, calls, grad = backward_plan(tape) if plan is None else plan
    if planned is not tape:
        raise ValueError("the plan was made on another tape")
    for call in setup:
        call()
    np.multiply(cotangent, seed, out=v)
    for call in calls:
        call()
    return grad.reshape(len(cotangent), -1)
