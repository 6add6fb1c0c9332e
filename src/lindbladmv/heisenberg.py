"""Representation 3: closed operator sets under the adjoint generator.

Given a candidate basis of observables, decide whether the adjoint
generator maps each member back into the span, extract the linear system it
generates on the expectation values of the set's own rows (the members, with
each adjoint pair as its two Hermitian parts), and propagate
expectation-value vectors with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import DependentBasisError, NotClosedError, ValidationError
from .linalg import EPS, EigenDecomposition, _as_array, eig, propagate_linear
from .model import LindbladModel, to_hermitian_basis

#: Relative out-of-span residual below which a basis counts as closed.
CLOSURE_RTOL = 1e-10
#: Round-off floor of the closure test, in units of ``eps * nu * ||X_k||_F``
#: (``nu`` is :attr:`~lindbladmv.model.LiouvilleOperator.norm_bound`): the
#: error of a computed image, and all there is of one that vanishes, such
#: as ``L^dag(I) = 0``.  For the identity on 210 random models with n = 2
#: to 32 the largest ratio measured is 0.14.
CLOSURE_ROUNDOFF = 10.0
#: Basis Gram-matrix condition number beyond which the basis is treated as dependent,
#: compared with the square of ``1/rcond`` of its triangular QR factor (LAPACK ``?trcon``).
GRAM_COND_LIMIT = 1e12


@dataclass(frozen=True)
class AdjointRep:
    """A closed operator set with the adjoint generator on the set's own rows.

    ``partner[k]`` is the index of the member ``basis[k]^dag``, or ``k`` itself when that
    member is Hermitian or the set lacks it.  Row ``k`` stands for ``basis[k]``, except that
    an adjoint pair ``lo < hi`` stands as its Hermitian parts ``(X_lo + X_hi)/2`` at ``lo``
    and ``(X_hi - X_lo)/2i`` at ``hi``.  Row ``j`` of ``generator`` expands ``L^dag`` of
    row ``j`` in the rows, i.e. gives the time derivative of its expectation value: real
    for a set that holds each member's conjugate transpose, and :attr:`coeffs` itself for
    Hermitian members.  Row ``k`` of :attr:`coeffs` expands ``L^dag(basis[k])`` in the
    basis; ``closure_residuals[k]`` is its out-of-span remainder norm.
    """

    basis: tuple
    generator: np.ndarray
    partner: np.ndarray
    closure_residuals: np.ndarray

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def coeffs(self) -> np.ndarray:
        # M G M^-1 for the pair mix M of _member_values: M^-1 is M^H, halved on a pair
        mixed = _member_values(self.generator.conj(), self.partner).conj()  # G M^H
        return _member_values(mixed.T, self.partner).T / (1 + (self.partner != range(self.size)))


def _member_values(values: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Member values from the row values ``a`` on the last axis of ``values``.

    ``x_lo = a_lo - i a_hi`` and ``x_hi = a_lo + i a_hi`` for an adjoint pair ``lo < hi``
    (see :class:`AdjointRep`), ``x_k = a_k`` for a member that is its own partner.
    """
    order = np.arange(len(partner))
    lo, hi = np.minimum(order, partner), np.maximum(order, partner)
    return values[..., lo] + 1j * np.sign(order - partner) * values[..., hi]


def _operator_stack(basis, n: int) -> np.ndarray:
    """The operators of ``basis`` as one validated ``(k, n, n)`` stack, ``k >= 1``."""
    ops = _as_array(basis, "basis operators", (3,), n)
    if len(ops) == 0:
        raise ValidationError(f"basis must hold at least one operator, got shape {ops.shape}")
    return ops


def _adjoint_partners(coords: np.ndarray):
    """For the coordinates ``U X_k`` of a set, the index of each member's conjugate
    transpose, whose coordinates are ``conj(U X_k)``, or ``None`` when one is missing.

    Rows are paired by weighted sums and then compared by value (``==`` holds the
    ``-0.0`` that ``conj`` makes of ``+0.0`` equal to it); equal sums, as of a
    repeated member of a (then dependent) set, give ``None`` too.
    """
    if not coords.imag.any():  # all Hermitian, each its own partner
        return np.arange(len(coords))
    sums = coords @ np.sqrt(np.arange(2.0, coords.shape[1] + 2.0))
    position = dict(zip(sums.tolist(), range(len(coords))))
    partner = np.array([position.get(z, -1) for z in sums.conj().tolist()])
    paired = len(position) == len(coords) and partner.min() >= 0
    return partner if paired and (coords[partner] == coords.conj()).all() else None


def close_set(model: LindbladModel, basis) -> AdjointRep:
    """Check that ``basis`` is closed and expand the adjoint generator on its rows.

    One unpivoted QR factorizes the rows ``U X_k`` (see ``model.to_hermitian_basis``),
    real for a set that holds each member's conjugate transpose: ``Re U X_k``, with
    ``Im U X_k`` for the second of each adjoint pair, which are the coordinates of the
    pair's Hermitian parts.  The images ``U L^dag(X_k)`` take the same rows; the
    orthogonal factor splits them into their projection, which one triangular solve
    turns into the generator on the rows, and a remainder.  Fails with
    :class:`DependentBasisError` for a numerically dependent basis and with
    :class:`NotClosedError` when any image ``L^dag(X_k)`` leaves the span by more than
    ``CLOSURE_RTOL`` relative to its norm and by more than the round-off floor
    ``CLOSURE_ROUNDOFF * eps * nu * ||X_k||_F``.
    """
    ops = _operator_stack(basis, model.dim)
    size, op = len(ops), model.operator
    coords, images = to_hermitian_basis(ops), to_hermitian_basis(op.apply_adjoint(ops))
    order, partner = np.arange(size), _adjoint_partners(coords)
    if partner is None:  # complex rows, each member its own
        rows, row_images, partner = coords, images, order
    else:
        second = (partner < order)[:, np.newaxis]
        rows, row_images = (np.where(second, x.imag, x.real) for x in (coords, images))
    # LAPACK directly: scipy.linalg's wrappers take longer than a 4 x 4 factorization
    trans = "T" if rows.dtype.kind == "f" else "C"
    names = ("geqrf", "ormqr" if trans == "T" else "unmqr", "trcon", "trtrs")
    geqrf, ormqr, trcon, trtrs = get_lapack_funcs(names, (rows,))
    factors, tau = geqrf(rows.T)[:2]
    r = np.triu(factors[:size])
    rcond = trcon(r)[0] ** 2 if len(r) == size else 0.0  # else more members than dimensions
    condition = 1.0 / rcond if rcond > 0.0 else np.inf
    if not condition <= GRAM_COND_LIMIT:
        raise DependentBasisError(f"basis Gram matrix has condition number about {condition:.3e}")
    # Q^H times the images: the first `size` rows project them on the span, the rest remain
    lwork = int(ormqr("L", trans, factors, tau, row_images.T, -1)[1][0].real)
    products = ormqr("L", trans, factors, tau, row_images.T, lwork)[0]
    # rows = R^T Q^T and images = P^T Q^T + remainder, so images = (R^-1 P)^T rows + remainder
    generator = trtrs(r, products[:size])[0].T
    residuals = np.linalg.norm(_member_values(products[size:], partner), axis=0)
    image_norms = np.linalg.norm(images, axis=1)
    floor = CLOSURE_ROUNDOFF * EPS * op.norm_bound * np.linalg.norm(coords, axis=1)
    outside = np.flatnonzero(residuals > np.maximum(CLOSURE_RTOL * image_norms, floor))
    if outside.size:
        k = int(outside[0])
        raise NotClosedError(k, residuals[k] / max(image_norms[k], 1e-300))
    return AdjointRep(tuple(ops), generator, partner, residuals)


def expectations(basis, rho) -> np.ndarray:
    """Expectation values ``Tr(X_k rho)`` for every operator in ``basis``.

    ``rho`` may also be a ``(T, n, n)`` stack of states; row ``t`` of the
    result then holds the values in state ``t``.
    """
    rho = _as_array(rho, "rho", (2, 3))
    ops = _operator_stack(basis, rho.shape[-1])
    # Tr(X rho) = sum_ij X[i, j] rho[j, i]
    return np.tensordot(rho, ops, axes=([-1, -2], [1, 2]))


def propagate_expectations(rep: AdjointRep, initial, times) -> np.ndarray:
    """Evolve an expectation-value vector: row ``i`` holds the values at ``times[i]``.

    The values of the rows, ``(x_lo + x_hi)/2`` and ``i (x_lo - x_hi)/2`` for an adjoint
    pair ``lo < hi``, step with the generator and are mixed back pair by pair.  For a
    closed set this matches the Schroedinger-picture readout ``Tr(X_k rho(t))`` at
    every time.
    """
    initial = _as_array(initial, "initial", (1,), rep.size)
    mate = initial[rep.partner]
    start = np.where(rep.partner < np.arange(rep.size), 1j * (mate - initial), initial + mate) / 2
    return _member_values(propagate_linear(rep.generator, start, times), rep.partner)


def adjoint_spectrum(rep: AdjointRep) -> EigenDecomposition:
    """Eigenvalues and eigenvectors of the generator, on the rows of ``rep``.

    The coefficient matrix ``rep.coeffs`` has the same eigenvalues; mixing each
    eigenvector's entries pair by pair, as the readout of
    :func:`propagate_expectations` mixes values, gives its eigenvectors.

    Their complex conjugates form a sub-multiset of the superoperator
    spectrum, so conjugate before comparing across representations.
    """
    return eig(rep.generator)
