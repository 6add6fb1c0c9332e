"""Representation 1: vectorize states and build the dense superoperator matrix.

Column-stacking convention throughout, and in no other module: entry
``(a, b)`` of an ``n x n`` matrix lands at flat index ``b*n + a``
(0-based).  Left multiplication ``A rho`` becomes ``kron(I, A)``, right
multiplication ``rho B`` becomes ``kron(B.T, I)``, and a sandwich
``A rho B`` becomes ``kron(B.T, A)``.  Only :func:`vec`, :func:`unvec`,
:func:`build_superoperator` and :func:`hermitian_matrix` know it: every
kernel works in coordinates on the orthonormal Hermitian basis, which
:func:`~lindbladmv.model.to_hermitian_basis` (``U``, re-exported here)
gives for matrices.  :func:`hermitian_matrix` is ``U S U^H``, which
:func:`propagate` steps for a superoperator and whose eigenvectors
:func:`spectrum` returns; a model is propagated on its matrix-free
:class:`~lindbladmv.model.LiouvilleOperator`, which applies to the same
coordinates.  A Lindblad generator maps Hermitian matrices to Hermitian
ones, so on that basis its matrix is real, as :func:`hermitian_matrix`
finds it to round-off, and so are the coordinates of a Hermitian state.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ComputedStateError, ValidationError
from .linalg import EPS, EigenDecomposition, _as_array, _is_number, as_square, as_times, eig
from .linalg import propagate_linear
from .model import (
    HERMITICITY_RTOL,
    TRACE_RTOL,
    DensityMatrix,
    LindbladModel,
    from_hermitian_basis,
    state_violations,
    to_hermitian_basis,
    validate_state,
)

COLUMN_STACKING = "column-stacking"


def vec(rho) -> np.ndarray:
    """Flatten a square matrix by stacking its columns."""
    return as_square(rho, "rho").reshape(-1, order="F")


def unvec(r, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`: rebuild the ``dim x dim`` matrix from a flat vector."""
    if not (_is_number(dim, numbers.Integral) and dim >= 1):
        raise ValidationError(f"dim must be an integer >= 1, got {dim!r}")
    return _as_array(r, "r", (1,), dim * dim).reshape((dim, dim), order="F")


@dataclass(frozen=True)
class Superoperator:
    """The generator as an ``n^2 x n^2`` matrix acting on column-stacked states."""

    dim_hilbert: int
    matrix: np.ndarray
    convention: ClassVar[str] = COLUMN_STACKING

    def __post_init__(self):
        if not (_is_number(self.dim_hilbert, numbers.Integral) and self.dim_hilbert >= 1):
            raise ValidationError(f"dim_hilbert must be an integer >= 1, got {self.dim_hilbert!r}")
        m = as_square(self.matrix, "superoperator matrix", self.dim_hilbert**2)
        object.__setattr__(self, "matrix", m)


def build_superoperator(model: LindbladModel) -> Superoperator:
    """Assemble the dense matrix of the generator in place.

    With ``H_eff`` and the scaled jumps ``L_k`` of :attr:`LindbladModel.operator`,
    the matrix is ``-i(kron(I, H_eff) - kron(conj(H_eff), I)) +
    sum_k kron(conj(L_k), L_k)``; the jump terms are written through the
    ``(n, n, n, n)`` view of the result and the ``H_eff`` terms added on the
    diagonals of its blocks, so no ``n^2 x n^2`` temporary is made.

    For every matrix ``rho``, ``unvec(L @ vec(rho))`` equals
    ``apply_generator(model, rho)``; this consistency is the defining
    contract of the construction.
    """
    n = model.dim
    op = model.operator
    matrix = np.empty((n * n, n * n), dtype=complex)
    # entry (b*n + a, d*n + c) of the matrix is blocks[b, a, d, c]
    blocks = matrix.reshape(n, n, n, n)
    scaled = np.reshape([jump for jump, _ in op.jumps], (-1, n, n))  # (0, n, n) writes zeros
    np.einsum("kac,kbd->badc", scaled, scaled.conj(), out=blocks)
    diag = np.arange(n)
    blocks[diag, :, diag, :] -= 1j * op.h_eff  # kron(I, H_eff): blocks[b, :, b, :]
    blocks[:, diag, :, diag] += 1j * op.h_eff.conj()  # kron(conj(H_eff), I)
    return Superoperator(n, matrix)


def hermitian_matrix(superop: Superoperator) -> np.ndarray:
    """``U S U^H``: the superoperator matrix ``S`` on the Hermitian basis, ``U`` on ``vec`` vectors.

    A Lindblad generator maps Hermitian matrices to Hermitian ones, so its
    ``U S U^H`` is real: the result is real when its imaginary part is at most
    ``HERMITICITY_RTOL * ||S||_F`` in Frobenius norm, which is round-off, and
    complex otherwise, with the eigenvalues of ``S`` either way.
    """
    n = superop.dim_hilbert
    # the vec vectors along axis 0 of an (n^2, k) array x are the matrices x.reshape(n, n, k).T
    left = to_hermitian_basis(superop.matrix.reshape(n, n, -1).T)  # (U S)^T
    r = to_hermitian_basis(np.conjugate(left, out=left).reshape(n, n, -1).T)  # (U (U S)^H)^T
    real = np.linalg.norm(r.imag) <= HERMITICITY_RTOL * np.linalg.norm(superop.matrix)
    return np.ascontiguousarray(r.real) if real else r.conj()


def propagate(system: Superoperator | LindbladModel, rho0, times) -> list[DensityMatrix]:
    """Evolve the state ``rho0`` to each requested time.

    The route follows the type of ``system``.  A :class:`Superoperator` is
    stepped by the dense exponential of :func:`hermitian_matrix`; a
    :class:`LindbladModel` never forms the dense matrix: its matrix-free
    :attr:`~lindbladmv.model.LindbladModel.operator` goes through
    :func:`~lindbladmv.linalg.expm_action` on the Hermitian basis.  Either way
    :func:`~lindbladmv.linalg.propagate_linear` steps the coordinates
    ``U rho0``, real when ``rho0`` equals its conjugate transpose exactly,
    and they are mapped back once.

    Times must be non-negative and ascending.  An invalid ``rho0`` raises
    :class:`StateValidationError`; a computed state that fails the
    density-matrix invariants (trace to the budget at
    :data:`~lindbladmv.model.TRACE_RTOL`) raises :class:`ComputedStateError`.
    """
    is_model = isinstance(system, LindbladModel)
    n = system.dim if is_model else system.dim_hilbert
    rho0 = validate_state(rho0).matrix
    if rho0.shape != (n, n):
        raise ValidationError(f"state shape {rho0.shape} does not match dim {n}")
    times = as_times(times)
    r0 = to_hermitian_basis(rho0)
    r0 = r0 if r0.imag.any() else r0.real
    if is_model:
        generator, norm = system.operator, system.operator.norm_bound
    else:
        generator, norm = hermitian_matrix(system), np.linalg.norm(system.matrix, 1)
    states = from_hermitian_basis(propagate_linear(generator, r0, times))
    violations = state_violations(states, TRACE_RTOL + EPS * norm * times)
    if violations:
        i = min(violations)
        raise ComputedStateError(violations[i], float(times[i]))
    return [DensityMatrix(rho) for rho in states]


def spectrum(superop: Superoperator) -> EigenDecomposition:
    """Full spectrum of the superoperator matrix: :func:`~lindbladmv.linalg.eig` of
    :func:`hermitian_matrix`.

    For a valid model this is a contraction-semigroup spectrum: real parts
    are non-positive (up to round-off) and eigenvalues come in conjugate
    pairs, exact ones because the matrix is real, with a zero eigenvalue for
    the stationary state.  The right eigenvectors are Hermitian-basis
    coordinates; ``U`` is unitary, so the eigenvalues, the residual norms
    and the condition number are those of the superoperator matrix itself.
    """
    return eig(hermitian_matrix(superop))
