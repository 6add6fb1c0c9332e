"""Driven two-level system with spontaneous emission.

Spin-1/2 operator constants and a model builder for the rotating-frame
Hamiltonian ``H = detuning * Sz + drive * Sx`` with a single lowering jump
at the decay rate.  Basis order is (excited, ground).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import _is_number
from .model import LindbladModel

SX = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = 0.5 * np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
S_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
S_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

#: Projectors onto the excited / ground level, in the (excited, ground) order.
EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
GROUND = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

BASIS_LABELS = ("e", "g")


@dataclass(frozen=True)
class TLSParams:
    """Rotating-frame parameters: detuning, drive amplitude, decay rate."""

    detuning: float
    drive: float
    decay: float

    def __post_init__(self):
        if not all(map(_is_number, (self.detuning, self.drive, self.decay))):
            raise ValidationError(f"TLS parameters must be real numbers, got {self!r}")
        if not self.decay >= 0.0:  # NaN fails too
            raise ValidationError(f"decay rate must be non-negative, got {self.decay}")


def build_tls(params: TLSParams) -> LindbladModel:
    """Two-level model with ``H = detuning*Sz + drive*Sx`` and lowering jump ``S_-``."""
    hamiltonian = params.detuning * SZ + params.drive * SX
    return LindbladModel(hamiltonian, ((params.decay, S_MINUS),))
