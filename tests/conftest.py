"""Shared helpers for building random circuit-loss instances.

The gradient tests compare the reverse-mode gradient against central finite
differences of the same end-to-end scalar loss.  Both come from one
:func:`qcgrad.trainer.random_objective`: a single input run as a B=1 batch
through the objective that training uses, so the check covers the gradient
path of ``train`` itself.
"""

import numpy as np

from qcgrad.circuit import encode_batch, forward_batch
from qcgrad.trainer import random_objective


def single_tape(x, theta, spec):
    """Tape of one input, run as a B=1 batch."""
    return forward_batch(encode_batch(np.asarray(x, dtype=float)[None, :], spec), theta, spec)


def random_instance(rng, n, l, classification):
    """(spec, encoded, theta, loss_fn, gradient_fn) for one random problem.

    ``encoded`` is the (1, 2**n) encoded input; ``gradient_fn`` maps theta to
    the backprop gradient of ``loss_fn``.
    """
    objective, theta = random_objective(rng, n, l, classification)

    def gradient_fn(th):
        _, _, grad = objective.backprop(th)
        return grad

    return objective.spec, objective.encoded, theta, objective.loss, gradient_fn


def backprop_gradient(spec, encoded, theta, gradient_fn):
    return gradient_fn(theta)
