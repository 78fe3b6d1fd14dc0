"""Input encoding, layered variational circuit, and the batch tape.

Circuit structure: an encoding block followed by ``depth_l + 1`` rotation
layers with a CZ-ring entangler between consecutive rotation layers.  Each
rotation layer splits into two commuting sub-layers: first every qubit's Y
rotation, then every qubit's Z rotation.  The simulation applies each
sub-layer as one fused operator: the Y sub-layer as one real Kronecker
matrix, in blocks of at most :data:`KRON_BLOCK` qubits, and the Z sub-layer
and the entangler after it as one diagonal, ``exp(-i/2 * Zsigns @ theta_z)``
times the ring's signs (:func:`ring_signs`).  The tape keeps the batch of
states after every Y sub-layer, then the final state:

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

Each forward plan owns every array its calls read.  A
:func:`variational_plan` makes its own :func:`layer_plan`, whose bound calls
build every layer's operators in one go from the plan's theta buffer, and
binds each layer's operands once, block k of each Y stack and diagonal k
with the float views they read and write.  :func:`run_variational` copies a
checked theta into that buffer and is one loop over the bound calls, the
layer build's then the forward's.  ``CircuitObjective`` (in
:mod:`qcgrad.trainer`) keeps one forward plan per path, and every other
caller plans once per call.

Every simulation runs on a batch of shape ``(B, 2**n)``; a single input is
the batch ``x[None, :]``.  The batch may also be the 2**n basis rows, whose
final states are the rows of the circuit's operator (see
:mod:`qcgrad.trainer`).

Each Y block multiplies every state separately, through
:func:`qcgrad.state.real_block_view`, so that every batch row equals bit for
bit the same input run alone (B=1), and training on a batch and replaying
one sample agree exactly.  With one flat GEMM per Y sub-layer, all 952
rows of a check at n = 3-6 and B = 2-200 differed from their B=1 runs.
The B=1 runs were the cause: numpy sends a one-row product down BLAS's
matrix-vector route, which rounds differently.  With those runs padded to
16 rows, as :func:`qcgrad.state.apply_operator` pads, none differed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .state import as_index, as_real, cz_signs, kron, real_block_view, z_sign_matrix


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
        if as_index(self.n_qubits, "n_qubits") < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if as_index(self.depth_l, "depth_l") < 0:
            raise ValueError(f"depth_l must be >= 0, got {self.depth_l}")
        if as_index(self.feature_dim, "feature_dim") not in (1, 2):
            raise ValueError(f"feature_dim must be 1 or 2, got {self.feature_dim}")
        if self.feature_dim == 2 and self.n_qubits < 2:
            raise ValueError("2-D inputs need at least 2 qubits")

    @property
    def param_count(self) -> int:
        return 2 * self.n_qubits * (self.depth_l + 1)

@dataclass(frozen=True)
class BatchTape:
    """One forward pass: the states, the angles and the diagonals it ran.

    ``posts`` are the (B, 2**n) states after every Y sub-layer and at the
    end; ``diags`` are the (l+1, B, 2**n) Z-and-entangler diagonals of
    :func:`layer_plan`, full factors of the rows, which the backward pass
    reads again.  All three
    are the buffers of the recording :func:`variational_plan` that ran, so a
    tape made on a kept plan holds whatever that plan's last run wrote.
    """

    spec: AnsatzSpec
    posts: list[np.ndarray]
    theta: np.ndarray
    diags: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.posts[-1]


def check_theta(theta: np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    theta = as_real(theta, "theta")
    if theta.shape != (spec.param_count,):
        raise ValueError(
            f"expected {spec.param_count} parameters for n={spec.n_qubits}, "
            f"l={spec.depth_l}, got shape {theta.shape}"
        )
    if not np.isfinite(theta).all():
        raise ValueError("parameters must be finite")
    return theta


def encode_angles(x: np.ndarray, spec: AnsatzSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit (Y, Z) encoding angles, each (B, n), of a (B, d) batch of inputs."""
    x = as_real(x, "x")
    if x.shape[-1] != spec.feature_dim:
        raise ValueError(f"expected {spec.feature_dim} feature(s), got shape {x.shape}")
    if not np.all(np.abs(x) <= 1.0):  # NaN fails too
        raise ValueError("encoded inputs must be finite and lie in [-1, 1]")
    per_qubit = x[..., [j % spec.feature_dim for j in range(spec.n_qubits)]]
    return np.arcsin(per_qubit), np.arccos(per_qubit**2)


def encode_batch(xs: np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    """Encode a (B, d) batch of inputs into (B, 2**n) amplitudes."""
    xs = as_real(xs, "xs")
    if xs.ndim != 2:
        raise ValueError(f"encode_batch takes a (B, d) array, got shape {xs.shape}")
    theta_y, theta_z = encode_angles(xs, spec)
    phase = np.exp(-0.5j * theta_z)
    qubits = np.stack([np.cos(0.5 * theta_y) * phase, np.sin(0.5 * theta_y) * np.conj(phase)], axis=-1)
    return kron(qubits[..., None]).reshape(len(xs), -1)


def rotation_phases(angles: np.ndarray, n_qubits: int, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``exp(-i/2 * Zsigns @ angles)`` of (..., n) angles, one per qubit, into ``out``.

    This is the diagonal of one rz per qubit, and of one ry per qubit in the
    Y eigenbasis (see :mod:`qcgrad.autodiff`).  ``work`` is a real array of
    the result's shape that takes the sums of signed angles.
    """
    sums = np.matmul(angles, z_sign_matrix(n_qubits).T, out=work)
    return np.exp(np.multiply(-0.5j, sums, out=out), out=out)


#: Most qubits one dense rotation matrix spans.  A dense matrix over m
#: qubits costs O(4**m) per state against O(m 2**m) for one gate at a time,
#: so larger registers are split into blocks of at most this many qubits.
KRON_BLOCK = 6


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
def _y_block_indices(n_qubits: int, low: int) -> tuple[np.ndarray, np.ndarray]:
    """(fold, entry) indices of the ry^T block of qubits ``low`` up to ``low + m - 1``.

    Here m is ``min(KRON_BLOCK, n_qubits - low)``.  ``fold[i, x]`` picks,
    from one layer's ``[cos_0, ..., cos_{n-1}, sin_0, ..., sin_{n-1}]``, the
    factor of the block's qubit ``m - 1 - i`` in magnitude x: its cos where
    x has a 0 at that qubit, its sin where x has a 1.  ``entry[r, c]``
    indexes ``[mags, -mags]`` with the magnitude ``r ^ c`` and the sign of
    the entry: ry^T = [[cos, sin], [-sin, cos]], so an entry is negative
    where an odd number of qubits has bit 1 in r and 0 in c.
    """
    m = min(KRON_BLOCK, n_qubits - low)
    x, qubits = np.arange(1 << m), np.arange(m - 1, -1, -1)[:, None]
    bits = (x >> qubits) & 1
    fold = low + qubits + n_qubits * bits
    # bits.T @ (1 - bits) counts the qubits with bit 1 in r and 0 in c
    entry = (x[:, None] ^ x) + len(x) * ((bits.T @ (1 - bits)) & 1)
    for index in (fold, entry):
        index.flags.writeable = False
    return fold, entry


def layer_plan(
    spec: AnsatzSpec, count: int
) -> tuple[np.ndarray, list[partial], tuple[list[np.ndarray], np.ndarray]]:
    """``(theta, calls, layers)``: the angles' buffer, and the bound calls that write ``layers`` from it.

    ``layers`` are the (Y blocks, Z-and-entangler diagonals) of all l+1
    rotation layers, built at once, and every temporary is a buffer of the
    plan's.  The diagonals are every Z sub-layer's phases times, except
    after the last, the ring's signs, copied into an (l+1, count, 2**n)
    stack: full factors of the (count, 2**n) rows they multiply.  numpy
    multiplies a (16, 16) array by a broadcast (16,) row in 1.45 us and by
    a full (16, 16) factor in 0.79 us, since it builds an iterator for the
    broadcast; at n = 4, l = 20 on the basis rows the 61 broadcast
    multiplies of a backprop step took about a quarter of it.  The stack
    costs one copy per build and (l+1) * count * 2**n amplitudes.  The Y
    blocks split the Kronecker product of a layer's ry matrices into blocks
    of at most ``KRON_BLOCK`` qubits; each block is an (l+1, dim, dim)
    stack, indexed by layer, of column-major views: OpenBLAS ran these
    (dim, dim) @ (dim, 2) products about 1.7x faster so.  Every forward runs
    the calls of the plan its :func:`variational_plan` keeps.  Their 13
    numpy calls at n <= 6 (17 at n = 7, 8) took 16 us at n = 4, l = 5 and
    31 us at l = 20 for the 16 basis rows on a kept plan, against 26 and
    40 us planning every call (2 vCPUs, numpy 2.4).

    How the blocks are built.  Entry (r, c) of the product of ry^T =
    [[cos, sin], [-sin, cos]] over m qubits multiplies one factor per qubit,
    each +/-cos or +/-sin of its half angle, so its magnitude depends only
    on ``r ^ c``: there are 2**m magnitudes per layer, not 4**m entries.
    The magnitudes are multiplied out in :func:`qcgrad.state.kron`'s factor
    order, highest qubit first, and one ``take`` spreads them, with their
    signs, over the entries (:func:`_y_block_indices`).  Negation is exact
    and commutes with rounding, so every entry, and its sign bit, equals the
    one ``kron`` builds from the full matrices.  ``kron`` runs its broadcast
    steps over axes of length 2: with it the build took 47 us at n = 4,
    l = 5, 85 us at l = 20 and 603 us at n = 6, l = 10, against 23, 35 and
    137 us so (2 vCPUs, numpy 2.4).  :func:`encode_batch` keeps ``kron``:
    an input's product state is a row of magnitudes with nothing to spread,
    and on the 10,201 inputs of a 101x101 grid ``kron`` took 2.2 ms where
    this fold took 3.2 ms.
    """
    n, l = spec.n_qubits, spec.depth_l
    theta = np.empty(spec.param_count)
    angles = theta.reshape(l + 1, n, 2)
    half, trig = np.empty((l + 1, n)), np.empty((l + 1, 2 * n))
    calls = [
        partial(np.multiply, 0.5, angles[:, :, 0], half),
        partial(np.cos, half, trig[:, :n]),
        partial(np.sin, half, trig[:, n:]),
    ]
    blocks = []
    for low in range(0, n, KRON_BLOCK):
        fold, entry = _y_block_indices(n, low)
        factors, table = np.empty((l + 1,) + fold.shape), np.empty((l + 1, 2, fold.shape[1]))
        stack = np.empty((l + 1,) + entry.shape)
        blocks.append(stack.swapaxes(-1, -2))
        # the indices are in range; the default mode="raise" copies through a temporary
        calls += [
            partial(trig.take, fold, 1, factors, "clip"),
            # a left fold over the factors, in kron's order
            partial(np.multiply.reduce, factors, axis=1, out=table[:, 0]),
            partial(np.negative, table[:, 0], table[:, 1]),
            partial(table.reshape(l + 1, -1).take, entry, 1, stack, "clip"),
        ]
    phases = np.empty((l + 1, 1 << n), dtype=complex)
    calls += [
        partial(rotation_phases, angles[:, :, 1], n, phases, np.empty(phases.shape)),
        partial(np.multiply, phases[:-1], ring_signs(n), phases[:-1]),
    ]
    diags = np.empty((l + 1, count, 1 << n), dtype=complex)
    calls.append(partial(np.copyto, diags, phases[:, None]))
    return theta, calls, (blocks, diags)


def variational_plan(
    encoded: np.ndarray, spec: AnsatzSpec, *, record: bool
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, list[partial]]:
    """``(theta, posts, diags, calls)``: the buffers and the bound calls of :func:`run_variational` on ``encoded``.

    The plan makes its own :func:`layer_plan`: ``theta`` is its angles'
    buffer and ``diags`` its (l+1, B, 2**n) Z-and-entangler diagonals
    for the B rows of ``encoded``.  ``posts`` are the tape rows
    ``[Y_0, ..., Y_l, final]`` when ``record`` is true, else one Y row and
    the final row.  ``calls`` is every numpy call of the forward,
    bound once, in order: the layer plan's, then per layer k one matmul per
    Y block, of block k of its stack and the float views it reads and
    writes, then the product of the Y row and diagonal k into the final row.
    A plan serves every call on the same ``encoded`` array.
    """
    amps = np.ascontiguousarray(encoded, dtype=complex)
    theta, calls, (blocks, diags) = layer_plan(spec, len(amps))
    # the rows are one allocation, and the objective keeps its plan: rows
    # freed after every call let the C heap shrink and fault its pages back
    # in on the next (1,470 minor faults per backprop step at n = 7, l = 5)
    rows = len(diags) + 1 if record else 2
    buffer = np.empty((rows,) + amps.shape, dtype=complex)
    posts = list(buffer)
    # a Y sub-layer split into Kronecker blocks writes to the row and to this
    # buffer in turn, so that its last block writes to the row (a fresh
    # buffer per block made a loss-only forward at n = 7, B = 200, l = 3 take
    # 504 minor page faults); a single block writes to the row alone
    work = np.empty_like(amps) if len(blocks) > 1 else posts[0]
    views, lo = [], 1
    for stack in blocks:
        m = stack.shape[1]
        views.append((real_block_view(buffer, m, lo), real_block_view(work, m, lo)))
        lo *= m
    # the first block reads the encoded states, then each diag * Y_k
    m = blocks[0].shape[1]
    source, final = real_block_view(amps, m), real_block_view(posts[-1], m)
    for k, diag in enumerate(diags):
        row = min(k, rows - 2)
        for i, (stack, (at_rows, at_work)) in enumerate(zip(blocks, views)):
            to_row = (len(views) - i) % 2
            if i:  # what the block before wrote
                source = at_work if to_row else at_rows[row]
            calls.append(partial(np.matmul, stack[k], source, at_rows[row] if to_row else at_work))
        calls.append(partial(np.multiply, posts[row], diag, posts[-1]))
        # the final row holds each diag * Y_k until the next Y sub-layer reads it
        source = final
    return theta, posts, diags, calls


def run_variational(
    encoded: np.ndarray, theta: np.ndarray, spec: AnsatzSpec, *, record: bool, plan: tuple | None = None
) -> list[np.ndarray] | np.ndarray:
    """Run the circuit ``spec`` at ``theta`` on encoded amplitudes of shape (B, dim).

    Returns the tape rows ``[Y_0, ..., Y_l, final]`` as a list when
    ``record`` is true, else just the final array.  This is the single code
    path behind every tape and every loss-only evaluation: theta is checked
    and copied into the plan's buffer, and the plan's calls build the layer
    operators from it, then run them.

    ``plan``, from :func:`variational_plan` with the same ``encoded``,
    ``spec`` and ``record``, is the one its caller keeps for every call: the
    rows returned are then its buffers, overwritten by the next call.
    Without a plan, the call plans for itself.  At n = 4 a forward is a few
    microseconds of arithmetic and mostly per-call numpy overhead, which
    making the views again on every call adds to.
    """
    theta = check_theta(theta, spec)
    buffer, posts, _, calls = variational_plan(encoded, spec, record=record) if plan is None else plan
    np.copyto(buffer, theta)
    for call in calls:
        call()
    return list(posts) if record else posts[-1]


def forward_batch(encoded: np.ndarray, theta: np.ndarray, spec: AnsatzSpec) -> BatchTape:
    """Run the variational layers on encoded amplitudes, recording the tape."""
    buffer, _, diags, _ = plan = variational_plan(encoded, spec, record=True)
    return BatchTape(spec, run_variational(encoded, theta, spec, record=True, plan=plan), buffer, diags)
