"""Representation 2: Krylov reduction of the generator in Liouville space.

The generator is only ever applied as a matrix-matrix operation on ``n x n``
matrices (never assembled as an ``n^2 x n^2`` matrix), which is the whole
point: one application costs ``n^3`` instead of ``n^4``.  Gram-Schmidt in
the Hilbert-Schmidt inner product yields an orthonormal basis of matrices,
kept as rows of their Hermitian-basis coordinates, and the square
upper-Hessenberg matrix representing the generator on it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import EigenDecomposition, _estimate, _is_number, arnoldi_iteration
from .linalg import as_square, eig, propagate_linear
from .model import LindbladModel, from_hermitian_basis, to_hermitian_basis


@dataclass(frozen=True)
class KrylovReduction:
    """Orthonormal Liouville-space basis plus the Hessenberg matrix on it.

    ``coordinates`` holds the basis as rows of Hermitian-basis coordinates,
    real for an exactly Hermitian start, and :attr:`basis` maps them back.
    Row ``i+1`` is reached from row ``i`` by one generator application and
    orthogonalization; subdiagonal entries are the (real, non-negative)
    normalization constants, so the pair (basis, hessenberg) is unique.
    The initial state is ``beta`` (its HS norm) times ``basis[0]``.
    ``breakdown_at`` records the column at which the residual vanished, if
    the requested dimension was not reached.  ``estimate`` is the
    a-posteriori error estimate of the propagated state at the horizon of
    the reduction, relative to ``beta``: ``0.0`` after a breakdown, ``None``
    for a reduction made without a horizon.
    """

    coordinates: np.ndarray
    hessenberg: np.ndarray
    breakdown_at: int | None
    beta: float
    estimate: float | None

    @property
    def size(self) -> int:
        return self.coordinates.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """The ``(size, n, n)`` stack of basis matrices."""
        return from_hermitian_basis(self.coordinates)


def arnoldi_reduce(model: LindbladModel, rho0, krylov_dim=None, horizon=None) -> KrylovReduction:
    """Gram-Schmidt reduction of the generator on the Krylov space of ``rho0``.

    Builds at most ``krylov_dim + 1`` basis rows from an integer
    ``krylov_dim`` in ``[0, n^2 - 1]``, by default ``n^2 - 1``.  The
    kernel :func:`~lindbladmv.linalg.arnoldi_iteration` runs on the
    coordinates of ``rho0 / beta`` on the Hermitian basis, whose dot product
    is the Hilbert-Schmidt one, through
    :meth:`~lindbladmv.model.LiouvilleOperator.matvec`, and its rows are
    kept.  When ``rho0`` equals its conjugate transpose exactly they are
    real: each image is then projected onto its Hermitian part, so round-off
    cannot open an anti-Hermitian direction, and the Hessenberg matrix is
    real.  The last application only fills the last Hessenberg column, so
    only an earlier breakdown truncates the reduction to the invariant
    subspace found.

    A finite ``horizon >= 0`` makes ``krylov_dim`` a cap: the kernel sizes
    the basis by the error estimate of the propagation to ``horizon``, the
    one :func:`~lindbladmv.linalg.expm_action` reads, and the first ``k``
    columns (a multiple of ``GROWTH_CHECK``) whose estimate, relative to
    ``beta``, is at most ``ACTION_RTOL`` end the reduction with ``k`` rows
    and the ``k x k`` Hessenberg matrix.  The reduction's ``estimate`` is
    that value, ``0.0`` after a breakdown, and the estimate at the cap,
    computed once, when the cap stops it first.
    """
    n = model.dim
    krylov_dim = n * n - 1 if krylov_dim is None else krylov_dim
    if not _is_number(krylov_dim, numbers.Integral) or not 0 <= krylov_dim <= n * n - 1:
        raise ValidationError(
            f"krylov_dim must be an integer in [0, {n * n - 1}], got {krylov_dim!r}"
        )
    if horizon is not None and not (_is_number(horizon) and 0.0 <= horizon < np.inf):
        raise ValidationError(f"horizon must be a finite number >= 0, got {horizon!r}")
    rho0 = as_square(rho0, "rho0", n)
    beta = float(np.linalg.norm(rho0))
    if beta == 0.0:
        raise ValidationError("initial state is zero")

    v0 = to_hermitian_basis(rho0 / beta)
    v0 = v0 if v0.imag.any() else v0.real
    apply = model.operator.matvec
    rows, hess, breakdown, estimate = arnoldi_iteration(apply, v0, krylov_dim + 1, horizon)
    size = hess.shape[1]
    if horizon is not None and breakdown is not None:
        estimate = 0.0
    elif horizon is not None and size == krylov_dim + 1:  # the cap stopped the process first
        estimate = _estimate(hess, horizon)
    breakdown_at = None if breakdown == krylov_dim else breakdown
    return KrylovReduction(rows[:size], hess[:size, :size], breakdown_at, beta, estimate)


def propagate_reduced(reduction: KrylovReduction, times) -> np.ndarray:
    """Evolve the initial state inside the reduced space over a time grid.

    Returns the ``(T, n, n)`` stack of states of ``rho0`` at the ``T``
    ascending, non-negative ``times``: the Hessenberg matrix is stepped from
    ``beta e_0`` by :func:`~lindbladmv.linalg.propagate_linear`.  Exact
    whenever the reduction spans the reachable Krylov space; a reduction
    made with a horizon carries its error estimate there, ``estimate``.
    """
    y0 = np.zeros(reduction.size, dtype=reduction.hessenberg.dtype)
    y0[0] = reduction.beta
    coefficients = propagate_linear(reduction.hessenberg, y0, times)
    return from_hermitian_basis(coefficients @ reduction.coordinates)


def ritz_values(reduction: KrylovReduction) -> EigenDecomposition:
    """Eigenvalues of the Hessenberg matrix (Ritz approximations of the spectrum)."""
    return eig(reduction.hessenberg)
