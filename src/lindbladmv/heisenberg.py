"""Representation 3: closed operator sets under the adjoint generator.

Given a candidate basis of observables, decide whether the adjoint
generator maps each member back into the span, extract the coefficient
matrix of the resulting linear system, and propagate expectation-value
vectors with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DependentBasisError, NotClosedError, ValidationError
from .linalg import EPS, EigenDecomposition, _as_array, eig, hs_inner, propagate_linear
from .model import LindbladModel

#: Relative out-of-span residual below which a basis counts as closed.
CLOSURE_RTOL = 1e-10
#: Round-off floor of the closure test, in units of ``eps * nu * ||X_k||_F``
#: (``nu`` is :attr:`~lindbladmv.model.LiouvilleOperator.norm_bound`): the
#: error of a computed image, and all there is of one that vanishes, such
#: as ``L^dag(I) = 0``.  For the identity on 210 random models with n = 2
#: to 32 the largest ratio measured is 0.14.
CLOSURE_ROUNDOFF = 10.0
#: Gram-matrix condition number beyond which the basis is treated as dependent.
GRAM_COND_LIMIT = 1e12


@dataclass(frozen=True)
class AdjointRep:
    """A closed operator set with its adjoint-generator coefficient matrix.

    Row ``k`` of ``coeffs`` expands the adjoint image of ``basis[k]`` in the
    basis, i.e. it gives the time derivative of the k-th expectation value.
    ``closure_residuals[k]`` is the (absolute) out-of-span remainder norm.
    """

    basis: tuple
    coeffs: np.ndarray
    closure_residuals: np.ndarray

    @property
    def size(self) -> int:
        return len(self.basis)


def _operator_stack(basis, n: int) -> np.ndarray:
    """The operators of ``basis`` as one validated ``(k, n, n)`` stack, ``k >= 1``."""
    ops = _as_array(basis, "basis operators", (3,), n)
    if len(ops) == 0:
        raise ValidationError(f"basis must hold at least one operator, got shape {ops.shape}")
    return ops


def close_set(model: LindbladModel, basis) -> AdjointRep:
    """Decompose the adjoint image of each basis operator inside the span.

    The least-squares decomposition is solved through the Gram matrix of
    the basis, for all images at once.  Fails with
    :class:`DependentBasisError` for a numerically dependent basis and with
    :class:`NotClosedError` when any image ``L^dag(X_k)`` leaves the span by
    more than ``CLOSURE_RTOL`` relative to its norm and by more than the round-off
    floor ``CLOSURE_ROUNDOFF * eps * nu * ||X_k||_F``.
    """
    ops = _operator_stack(basis, model.dim)
    gram = hs_inner(ops, ops)
    condition = np.linalg.cond(gram)
    if not np.isfinite(condition) or condition > GRAM_COND_LIMIT:
        raise DependentBasisError(
            f"basis Gram matrix has condition number {condition:.3e}"
        )
    op = model.operator
    images = op.apply_adjoint(ops)
    # column k of the solution expands image k: coeffs[k] = gram^-1 <ops, image_k>
    coeffs = np.linalg.solve(gram, hs_inner(ops, images)).T
    remainders = images - np.tensordot(coeffs, ops, axes=1)
    residuals = np.linalg.norm(remainders, axis=(1, 2))
    image_norms = np.linalg.norm(images, axis=(1, 2))
    floor = CLOSURE_ROUNDOFF * EPS * op.norm_bound * np.linalg.norm(ops, axis=(1, 2))
    outside = np.flatnonzero(residuals > np.maximum(CLOSURE_RTOL * image_norms, floor))
    if outside.size:
        k = int(outside[0])
        raise NotClosedError(k, residuals[k] / max(image_norms[k], 1e-300))
    return AdjointRep(tuple(ops), coeffs, residuals)


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

    For a closed set this matches the Schroedinger-picture readout
    ``Tr(X_k rho(t))`` at every time.
    """
    initial = _as_array(initial, "initial", (1,), rep.size)
    return propagate_linear(rep.coeffs, initial, times)


def adjoint_spectrum(rep: AdjointRep) -> EigenDecomposition:
    """Eigenvalues of the coefficient matrix.

    Their complex conjugates form a sub-multiset of the superoperator
    spectrum, so conjugate before comparing across representations.
    """
    return eig(rep.coeffs)
