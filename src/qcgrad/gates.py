"""Single-qubit rotation matrices.

Conventions: R_Y(t) = exp(-i t Y/2) and R_Z(t) = exp(-i t Z/2), the standard
half-angle forms.  Any consistent convention trains equally well (the angles
are learned), but the input encoding feeds specific angles, so the convention
is fixed here and documented.
"""

import cmath
import math

import numpy as np


def _require_finite(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    return theta


def ry(theta: float) -> np.ndarray:
    """Y rotation: [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    theta = _require_finite(theta)
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Z rotation: diag(e^{-it/2}, e^{+it/2})."""
    theta = _require_finite(theta)
    p = cmath.exp(-0.5j * theta)
    return np.array([[p, 0.0], [0.0, p.conjugate()]], dtype=complex)
