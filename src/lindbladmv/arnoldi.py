"""Representation 2: Krylov reduction of the generator in Liouville space.

The generator is only ever applied as a matrix-matrix operation on ``n x n``
matrices (never assembled as an ``n^2 x n^2`` matrix), which is the whole
point: one application costs ``n^3`` instead of ``n^4``.  Gram-Schmidt in
the Hilbert-Schmidt inner product yields an orthonormal basis of matrices
and the square upper-Hessenberg matrix representing the generator on it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (
    EigenDecomposition,
    _as_array,
    _is_number,
    arnoldi_iteration,
    as_square,
    eig,
)
from .linalg import hs_inner, hs_norm, propagate_linear
from .model import LindbladModel, from_hermitian_basis, to_hermitian_basis


@dataclass(frozen=True)
class KrylovReduction:
    """Orthonormal Liouville-space basis plus the Hessenberg matrix on it.

    ``basis[i+1]`` is reached from ``basis[i]`` by one generator application
    and orthogonalization; subdiagonal entries are the (real, non-negative)
    normalization constants, so the pair (basis, hessenberg) is unique.
    ``breakdown_at`` records the column at which the residual vanished, if
    the requested dimension was not reached.
    """

    basis: tuple
    hessenberg: np.ndarray
    breakdown_at: int | None
    model_dim: int

    @property
    def size(self) -> int:
        return len(self.basis)


def arnoldi_reduce(model: LindbladModel, rho0, krylov_dim: int) -> KrylovReduction:
    """Gram-Schmidt reduction of the generator on the Krylov space of ``rho0``.

    Builds at most ``krylov_dim + 1`` basis matrices from an integer
    ``krylov_dim`` in ``[0, n^2 - 1]`` (the full Liouville dimension).  The
    kernel :func:`~lindbladmv.linalg.arnoldi_iteration` runs on the
    coordinates of ``rho0`` on the Hermitian basis, whose dot product is the
    Hilbert-Schmidt one, through
    :attr:`~lindbladmv.model.LiouvilleOperator.hermitian`.  When ``rho0``
    equals its conjugate transpose exactly they are real: each image is then
    projected onto its Hermitian part, so round-off cannot open an
    anti-Hermitian direction, and the Hessenberg matrix is real.  The last
    application only fills the last Hessenberg column, so only an earlier
    breakdown truncates the reduction to the invariant subspace found.
    """
    n = model.dim
    if not _is_number(krylov_dim, numbers.Integral) or not 0 <= krylov_dim <= n * n - 1:
        raise ValidationError(
            f"krylov_dim must be an integer in [0, {n * n - 1}], got {krylov_dim!r}"
        )
    rho0 = as_square(rho0, "rho0", n)
    norm0 = hs_norm(rho0)
    if norm0 == 0.0:
        raise ValidationError("initial state is zero")

    v0 = to_hermitian_basis(rho0 / norm0)
    v0 = v0 if v0.imag.any() else v0.real
    basis, hess, breakdown = arnoldi_iteration(model.operator.hermitian.matvec, v0, krylov_dim + 1)
    size = min(basis.shape[0], krylov_dim + 1)
    breakdown_at = None if breakdown == krylov_dim else breakdown
    basis = tuple(from_hermitian_basis(basis[:size]))
    return KrylovReduction(basis, hess[:size, :size], breakdown_at, n)


def project(reduction: KrylovReduction, rho) -> np.ndarray:
    """Coefficients of ``rho`` on the reduction basis (its HS projections)."""
    return hs_inner(np.asarray(reduction.basis), as_square(rho, "rho", reduction.model_dim))


def reconstruct(reduction: KrylovReduction, coefficients) -> np.ndarray:
    """Linear combination of the basis matrices with the given coefficients.

    ``coefficients`` is one vector of length ``reduction.size``, or a
    ``(T, size)`` array whose rows give a ``(T, n, n)`` stack of matrices.
    """
    coefficients = _as_array(coefficients, "coefficients")
    if coefficients.ndim not in (1, 2) or coefficients.shape[-1] != reduction.size:
        raise ValidationError(
            f"coefficients of shape {coefficients.shape} for a basis of size {reduction.size}"
        )
    return np.tensordot(coefficients, np.asarray(reduction.basis), axes=1)


def propagate_reduced(reduction: KrylovReduction, times) -> np.ndarray:
    """Evolve the normalized initial state inside the reduced space over a time grid.

    Returns the ``(T, n, n)`` stack of states at the ``T`` ascending,
    non-negative ``times``.  The Hessenberg matrix is stepped from ``e_0``
    by :func:`~lindbladmv.linalg.propagate_linear`, so the trajectory
    starts from ``basis[0]`` (the unit-HS-norm initial state) and at
    ``t = 0`` is ``basis[0]`` itself.  Exact whenever the reduction spans
    the reachable Krylov space.
    """
    e0 = np.zeros(reduction.size, dtype=reduction.hessenberg.dtype)
    e0[0] = 1.0
    return reconstruct(reduction, propagate_linear(reduction.hessenberg, e0, times))


def ritz_values(reduction: KrylovReduction) -> EigenDecomposition:
    """Eigenvalues of the Hessenberg matrix (Ritz approximations of the spectrum)."""
    return eig(reduction.hessenberg)
