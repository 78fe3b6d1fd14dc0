"""Shared helpers: single-input tapes and the single-state <Z> reference.

The gradient tests build their random instances with
:func:`qcgrad.trainer.random_objective`: a single input run as a B=1 batch
through the objective that training uses, so comparing its
``loss_and_grad_backprop`` gradient with central finite differences of its
``loss`` covers the gradient path of ``train`` itself.
"""

import numpy as np

from qcgrad.circuit import encode_batch, forward_batch
from qcgrad.state import QuantumState, z_expectation


def single_tape(x, theta, spec):
    """Tape of one input, run as a B=1 batch."""
    return forward_batch(encode_batch(np.asarray(x, dtype=float)[None, :], spec), theta, spec)


def z_reference(final, qubits):
    """(B, k) <Z> of each final state's qubits, from the single-state z_expectation."""
    n = final.shape[1].bit_length() - 1
    return np.array([[z_expectation(QuantumState(n, row), q) for q in qubits] for row in final])
