"""Representation 2: Krylov reduction of the generator in Liouville space.

The generator is only ever applied as a matrix-matrix operation on ``n x n``
matrices (never assembled as an ``n^2 x n^2`` matrix), which is the whole
point: one application costs ``n^3`` instead of ``n^4``.  Gram-Schmidt in
the Hilbert-Schmidt inner product yields an orthonormal basis of matrices
and the square upper-Hessenberg matrix representing the generator on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import EigenDecomposition, eig, hs_inner, hs_norm, orthogonalize, propagate_linear
from .model import LindbladModel, _state_matrix

#: Residual norm below this fraction of the first application's norm is a
#: happy breakdown: the span found is exactly invariant.
BREAKDOWN_RTOL = 1e-12


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

    Builds at most ``krylov_dim + 1`` basis matrices.  ``krylov_dim`` is
    capped at ``n^2 - 1`` (the full Liouville dimension); the reduction
    stops early on happy breakdown and truncates the Hessenberg matrix to
    the invariant subspace found.  The basis is kept as one stack, each new
    matrix orthogonalized against all earlier ones at once by
    :func:`~lindbladmv.linalg.orthogonalize`.
    """
    if krylov_dim < 0:
        raise ValidationError(f"krylov_dim must be >= 0, got {krylov_dim}")
    n = model.dim
    if krylov_dim > n * n - 1:
        raise ValidationError(
            f"krylov_dim {krylov_dim} exceeds the Liouville dimension bound {n * n - 1}"
        )
    rho0 = _state_matrix(rho0)
    if rho0.shape != (n, n):
        raise ValidationError(f"state shape {rho0.shape} does not match model dim {n}")
    norm0 = hs_norm(rho0)
    if norm0 == 0.0:
        raise ValidationError("initial state is zero")

    apply = model.operator.apply
    basis = np.empty((krylov_dim + 1, n, n), dtype=complex)
    flat = basis.reshape(krylov_dim + 1, n * n)  # row j is matrix j, read row-major
    basis[0] = rho0 / norm0
    hess = np.zeros((krylov_dim + 1, krylov_dim + 1), dtype=complex)
    size = krylov_dim + 1
    breakdown_at = None
    for j in range(krylov_dim + 1):
        w = apply(basis[j]).reshape(-1)
        if j == 0:
            scale = np.linalg.norm(w)
        hess[: j + 1, j] = orthogonalize(flat[: j + 1], w)
        if j == krylov_dim:
            break
        residual = np.linalg.norm(w)
        if residual <= BREAKDOWN_RTOL * scale:
            breakdown_at, size = j, j + 1
            hess = hess[:size, :size]
            break
        hess[j + 1, j] = residual
        flat[j + 1] = w / residual
    return KrylovReduction(tuple(basis[:size]), hess, breakdown_at, n)


def project(reduction: KrylovReduction, rho) -> np.ndarray:
    """Coefficients of ``rho`` on the reduction basis (its HS projections)."""
    rho = _state_matrix(rho)
    n = reduction.model_dim
    if rho.shape != (n, n):
        raise ValidationError(f"matrix shape {rho.shape} does not match model dim {n}")
    return hs_inner(np.asarray(reduction.basis), rho)


def reconstruct(reduction: KrylovReduction, coefficients) -> np.ndarray:
    """Linear combination of the basis matrices with the given coefficients.

    ``coefficients`` is one vector of length ``reduction.size``, or a
    ``(T, size)`` array whose rows give a ``(T, n, n)`` stack of matrices.
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.ndim not in (1, 2) or coefficients.shape[-1] != reduction.size:
        raise ValidationError(
            f"coefficients of shape {coefficients.shape} for a basis of size {reduction.size}"
        )
    return np.tensordot(coefficients, np.asarray(reduction.basis), axes=1)


def propagate_reduced(reduction: KrylovReduction, t: float) -> np.ndarray:
    """Evolve the normalized initial state inside the reduced space to time ``t``.

    The initial coefficient vector is ``e_0``: the trajectory starts from
    ``basis[0]`` (the unit-HS-norm initial state), so at ``t = 0`` the
    result is ``basis[0]`` itself.  Exact whenever the reduction spans the
    reachable Krylov space.  For a whole time grid, step the Hessenberg
    matrix with :func:`~lindbladmv.linalg.propagate_linear` from ``e_0``
    and :func:`reconstruct` the rows.
    """
    e0 = np.zeros(reduction.size, dtype=complex)
    e0[0] = 1.0
    (coefficients,) = propagate_linear(reduction.hessenberg, e0, [t])
    return reconstruct(reduction, coefficients)


def ritz_values(reduction: KrylovReduction) -> EigenDecomposition:
    """Eigenvalues of the Hessenberg matrix (Ritz approximations of the spectrum)."""
    return eig(reduction.hessenberg)
