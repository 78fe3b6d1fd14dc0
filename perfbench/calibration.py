"""Host-speed calibration: a fixed kernel timed between the benchmark's operations.

The speed of a shared host drifts by up to 1.5x within a minute, and CPU time
drifts with wall time, so the median wall time of one run is as far off as
the host happened to be slow.  ``HostClock`` times a fixed kernel that shares
no code with ``qcgrad``: three forward-and-backward passes of a 4-qubit,
5-layer RY/RZ circuit with a CZ ring on a batch of 200 states, with a tape
of the forward states and one summed product per parameter on the way back.
It mixes Python dispatch, 2x2 gate applications and reductions on 200x16
complex arrays in about the proportions that ``train()`` does, so the host
slows it about as much as it slows ``train()``.  Each timing is multiplied
by ``REF_S`` over the mean kernel time just before and just after it, which
reads as seconds on a host where the kernel takes ``REF_S``.
"""

from __future__ import annotations

import math
import time

import numpy as np

REF_S = 0.015  # kernel time on a 2-vCPU x86-64 VM (Xeon), Python 3.11, numpy 2.4
BATCH, QUBITS, LAYERS, PASSES = 200, 4, 5, 3
DIM = 1 << QUBITS


def _ry(t: float) -> np.ndarray:
    c, s = math.cos(0.5 * t), math.sin(0.5 * t)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t: float) -> np.ndarray:
    return np.array([[complex(math.cos(0.5 * t), -math.sin(0.5 * t)), 0],
                     [0, complex(math.cos(0.5 * t), math.sin(0.5 * t))]])


def _pairs(a: np.ndarray, qubit: int) -> np.ndarray:
    """View of a (BATCH, DIM) array with the qubit's bit on axis 2."""
    lo = 1 << qubit
    return a.reshape(BATCH, DIM // (2 * lo), 2, lo)


def _apply(a: np.ndarray, g: np.ndarray, qubit: int) -> np.ndarray:
    v = _pairs(a, qubit)
    out = np.empty_like(v)
    out[..., 0, :] = g[0, 0] * v[..., 0, :] + g[0, 1] * v[..., 1, :]
    out[..., 1, :] = g[1, 0] * v[..., 0, :] + g[1, 1] * v[..., 1, :]
    return out.reshape(BATCH, DIM)


class HostClock:
    """Samples the kernel; ``scale()`` gives the factor for the operation since the last sample."""

    def __init__(self):
        rng = np.random.default_rng(20191031)
        amps = rng.standard_normal((BATCH, DIM)) + 1j * rng.standard_normal((BATCH, DIM))
        self.amps = amps / np.linalg.norm(amps, axis=1, keepdims=True)
        self.theta = rng.uniform(0.0, 2.0 * math.pi, 2 * QUBITS * (LAYERS + 1))
        bits = (np.arange(DIM)[:, None] >> np.arange(QUBITS)) & 1
        self.ring = (-1.0) ** sum(bits[:, j] * bits[:, (j + 1) % QUBITS] for j in range(QUBITS))
        self.readout = 2.0 * (bits[:, 1] - bits[:, 0]).astype(float)  # d(<Z0> - <Z1>)/dp
        self.samples: list[float] = []
        self.last = None
        for _ in range(5):  # warm-up
            self._time()

    def _pass(self) -> float:
        th, n = self.theta, QUBITS
        a, tape = self.amps, []
        for k in range(LAYERS + 1):
            for j in range(n):
                a = _apply(a, _ry(th[2 * n * k + 2 * j]), j)
            tape.append(a)
            for j in range(n):
                a = _apply(a, _rz(th[2 * n * k + 2 * j + 1]), j)
            tape.append(a)
            if k < LAYERS:
                a = a * self.ring
                tape.append(a)
        cot = self.readout * np.conj(a)
        grad = np.zeros((BATCH, th.size))
        for k in range(LAYERS, -1, -1):
            s = tape.pop()
            for j in range(n):
                cv, sv = _pairs(cot, j), _pairs(s, j)
                grad[:, 2 * n * k + 2 * j + 1] = (cv[..., 0, :] * sv[..., 0, :]
                                                  - cv[..., 1, :] * sv[..., 1, :]).imag.sum(axis=(-2, -1))
            for j in range(n):
                cot = _apply(cot, _rz(th[2 * n * k + 2 * j + 1]).T, j)
            s = tape.pop()
            for j in range(n):
                cv, sv = _pairs(cot, j), _pairs(s, j)
                grad[:, 2 * n * k + 2 * j] = (cv[..., 1, :] * sv[..., 0, :]
                                              - cv[..., 0, :] * sv[..., 1, :]).real.sum(axis=(-2, -1))
            for j in range(n):
                cot = _apply(cot, _ry(th[2 * n * k + 2 * j]).T, j)
            if k > 0:
                cot = cot * self.ring
                tape.pop()
        return float(grad.mean(axis=0).sum())

    def _time(self) -> float:
        start = time.perf_counter()
        for _ in range(PASSES):
            self._pass()
        return time.perf_counter() - start

    def mark(self) -> None:
        """Sample the kernel just before a timed operation."""
        self.last = self._time()
        self.samples.append(self.last)

    def scale(self) -> float:
        """Sample the kernel now; the factor for the operation since the previous sample."""
        before = self.last
        self.mark()
        return REF_S / ((before + self.last) / 2.0)
