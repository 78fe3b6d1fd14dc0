"""Independent dense-matrix model of the benchmarked circuit and loss.

It shares no code with ``qcgrad``: every rotation layer is one Kronecker
product of 2x2 matrices applied as a full ``2**n x 2**n`` matmul, where
``qcgrad`` applies gates one qubit at a time.  The conventions it encodes
(qubit q is bit q of the basis index, R(t) = exp(-i t P / 2), the parameter
layout, the input encoding and the gamma-softmax cross entropy on qubits 0
and 1) are those documented in ``qcgrad.circuit`` and ``qcgrad.heads``.
"""

from __future__ import annotations

import numpy as np


def _ry(t: float) -> np.ndarray:
    c, s = np.cos(0.5 * t), np.sin(0.5 * t)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _bits(n: int) -> np.ndarray:
    """(2**n, n) array: bit q of every basis index."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1


def encode(x: np.ndarray, n: int) -> np.ndarray:
    """(B, 2) inputs -> (B, 2**n) product states; qubit j reads feature j % 2."""
    feats = x[:, np.arange(n) % 2]
    ty, tz = np.arcsin(feats), np.arccos(feats**2)
    # rz(tz) ry(ty) |0> = (e^{-i tz/2} cos(ty/2), e^{+i tz/2} sin(ty/2))
    one_qubit = np.stack(
        [np.exp(-0.5j * tz) * np.cos(0.5 * ty), np.exp(0.5j * tz) * np.sin(0.5 * ty)], axis=-1
    )
    bits = _bits(n)
    return np.prod(one_qubit[:, np.arange(n), bits], axis=-1)


def ring_diagonal(n: int) -> np.ndarray:
    """CZ from qubit j to (j + 1) mod n for every j, as one +/-1 diagonal."""
    if n < 2:
        return np.ones(1 << n)
    bits = _bits(n)
    flips = sum(bits[:, j] * bits[:, (j + 1) % n] for j in range(n))
    return (-1.0) ** flips


def layer_unitary(theta: np.ndarray, k: int, n: int) -> np.ndarray:
    """Rotation layer k: RZ after RY on every qubit, qubit 0 the least significant factor."""
    u = np.ones((1, 1), dtype=complex)
    for j in reversed(range(n)):
        base = 2 * n * k + 2 * j
        u = np.kron(u, _rz(theta[base + 1]) @ _ry(theta[base]))
    return u


def loss(x: np.ndarray, labels: np.ndarray, theta: np.ndarray, n: int, depth: int, gamma: float) -> float:
    """Mean cross entropy of the gamma softmax over (<Z_0>, <Z_1>)."""
    psi = encode(x, n)
    ring = ring_diagonal(n)
    for k in range(depth + 1):
        psi = psi @ layer_unitary(theta, k, n).T
        if k < depth:
            psi = psi * ring
    probs = np.abs(psi) ** 2
    z = probs @ (1.0 - 2.0 * _bits(n)[:, :2])
    y1 = 1.0 / (1.0 + np.exp(-gamma * (z[:, 0] - z[:, 1])))
    y = np.clip(y1, 1e-12, 1.0 - 1e-12)
    return float(np.mean(-(labels * np.log(y) + (1.0 - labels) * np.log(1.0 - y))))


def gradient_error(f, theta: np.ndarray, grad: np.ndarray, rng: np.random.Generator, coords: int, h: float = 1e-5) -> float:
    """Largest gap between ``grad`` and central differences of ``f``.

    Checks ``coords`` coordinates (always the first and the last) and the
    directional derivative along one random unit direction, each scaled by
    max(1, |reference|).
    """
    picks = {0, theta.size - 1} | set(rng.choice(theta.size, size=min(coords, theta.size), replace=False).tolist())
    worst = 0.0
    for m in sorted(picks):
        e = np.zeros_like(theta)
        e[m] = h
        fd = (f(theta + e) - f(theta - e)) / (2.0 * h)
        worst = max(worst, abs(grad[m] - fd) / max(1.0, abs(fd)))
    v = rng.standard_normal(theta.size)
    v /= np.linalg.norm(v)
    fd = (f(theta + h * v) - f(theta - h * v)) / (2.0 * h)
    return max(worst, abs(float(grad @ v) - fd) / max(1.0, abs(fd)))
