"""Physical model layer: Hamiltonian, jump operators, density matrices.

The generator is applied directly as matrix-matrix operations (no
superoperator matrix is formed here) by one :class:`LiouvilleOperator` per
model, and its adjoint by the same class on swapped data; the coordinates of
matrices on the Hermitian basis are defined here too.  The dense vectorized
representation, and with it column stacking, lives in
:mod:`lindbladmv.vectorized`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import StateValidationError, ValidationError
from .linalg import _as_float, _is_number, as_square

#: Relative tolerance for Hermiticity of the Hamiltonian and of states.
HERMITICITY_RTOL = 1e-12
#: Relative tolerance for unit trace of a given state.  A state computed as
#: ``exp(S t) rho0`` is held to ``TRACE_RTOL + eps * norm(S) * t``
#: instead (``eps`` the machine epsilon): the computed exponential is the
#: exact one of a generator perturbed by ``O(eps * norm(S))``, and a
#: perturbation that does not conserve trace leaks it at that rate over the
#: whole horizon.  Measured on six random n=16 models (``random_model``
#: with ``default_rng`` seeds 0 to 4 and 7, two jumps) for t = 1 to 100,
#: the trace error of the dense ``expm(S t) r0`` stays below
#: ``0.2 * eps * ||S||_1 * t``.  ``norm(S)`` is ``||S||_1`` for a dense
#: matrix and :attr:`LiouvilleOperator.norm_bound` on the matrix-free path,
#: which is 1.14 to 1.37 times ``||S||_1`` on those models.
TRACE_RTOL = 1e-12
#: Most negative admissible state eigenvalue (round-off floor).
POSITIVITY_FLOOR = -1e-10


@dataclass(frozen=True)
class LindbladModel:
    """A Markovian open-system model: Hamiltonian plus rated jump operators.

    ``jumps`` is a sequence of ``(rate, operator)`` pairs; rates must be
    finite and non-negative and operators are arbitrary square matrices of
    the Hamiltonian's dimension (hbar = 1 throughout, so Hamiltonian entries
    are rates).
    """

    hamiltonian: np.ndarray
    jumps: tuple = field(default_factory=tuple)

    def __post_init__(self):
        h = as_square(self.hamiltonian, "hamiltonian")
        defect = np.linalg.norm(h - h.conj().T)
        if defect > HERMITICITY_RTOL * np.linalg.norm(h):
            raise ValidationError(
                f"hamiltonian is not Hermitian (defect {defect:.3e})"
            )
        normalized = []
        for k, jump in enumerate(self.jumps):
            try:
                rate, op = () if isinstance(jump, np.ndarray) else jump  # an array's rows are no pair
            except (TypeError, ValueError):
                raise ValidationError(f"jump {k} must be a (rate, operator) pair") from None
            rate = _as_float(rate) if _is_number(rate) else repr(rate)  # an int past floats is inf
            if not (_is_number(rate) and 0.0 <= rate < np.inf):  # NaN fails too
                raise ValidationError(f"jump rate {k} must be finite and non-negative: {rate}")
            normalized.append((rate, as_square(op, f"jump operator {k}", h.shape[0])))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", tuple(normalized))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def operator(self) -> "LiouvilleOperator":
        """The model's matrix-free generator, built on first use and kept: zero rates
        dropped, ``L_k = sqrt(g_k) A_k`` and ``H_eff = H - (i/2) sum_k L_k^dag L_k``."""
        h_eff, jumps = self.hamiltonian, []
        for rate, op in self.jumps:
            if rate != 0.0:
                scaled = np.sqrt(rate) * op
                scaled_dag = scaled.conj().T  # a view, so the adjoint's norm_bound is the same
                h_eff = h_eff - 0.5j * (scaled_dag @ scaled)
                jumps.append((scaled, scaled_dag))
        return LiouvilleOperator(h_eff, jumps)


class LiouvilleOperator:
    """Matrix-free generator ``L rho = -i(H_eff rho - rho H_eff^dag) + sum_k L_k rho L_k^dag``.

    Built from ``H_eff`` and the pairs ``(L_k, L_k^dag)``.  One routine forms
    the products for an ``n x n`` matrix or a ``(k, n, n)`` stack ``rho``: one
    with ``[-2i H_eff; L_1; ...; L_K]``, rows interleaved so that it reads as
    ``[-2i H_eff rho, L_1 rho, ..., L_K rho]`` uncopied, and one ``n x Kn`` by
    ``Kn x n`` product that sums ``L_k rho L_k^dag``; the superoperator matrix
    is never formed.  :meth:`apply` and :meth:`matvec` read the generator off
    them.  :attr:`adjoint` is the same class built from ``-H_eff^dag`` and the
    pairs ``(L_k^dag, L_k)``.  No method validates its input; callers check
    shapes at the API boundary.

    ``norm_bound`` is ``nu = 2 ||H_eff||_F + sum_k ||L_k||_F^2``, which
    bounds the generator and its adjoint: ``||L rho||_F <= nu ||rho||_F``.
    With ``shape`` ``(n^2, n^2)``, a real ``dtype`` and :meth:`matvec` it is
    the linear operator on Hermitian-basis coordinates that Krylov methods
    apply, in the type of their vector.
    """

    dtype = float

    def __init__(self, h_eff: np.ndarray, jumps):
        self.h_eff, self.jumps, self.dim = h_eff, tuple(jumps), h_eff.shape[0]
        self.norm_bound = float(
            2.0 * np.linalg.norm(h_eff) + sum(np.linalg.norm(s) ** 2 for s, _ in self.jumps)
        )
        self.shape = (self.dim**2, self.dim**2)
        factors = np.concatenate([-2j * h_eff] + [s for s, _ in self.jumps], axis=1)
        self._stacked = factors.reshape(-1, self.dim)  # row a of each factor in turn
        self._jumps_dag = np.reshape([d for _, d in self.jumps], (-1, self.dim))  # (0, n) when K = 0
        self._i_h_eff_dag = 1j * h_eff.conj().T

    @cached_property
    def adjoint(self) -> "LiouvilleOperator":
        """The adjoint (Heisenberg-picture) generator, built on first use and kept:
        ``L^dag X = i(H_eff^dag X - X H_eff) + sum_k L_k^dag X L_k``."""
        return LiouvilleOperator(-self.h_eff.conj().T, [(d, s) for s, d in self.jumps])

    def _products(self, rho: np.ndarray):
        """``(-2i H_eff rho, sum_k L_k rho L_k^dag)`` for a matrix or a stack ``rho``."""
        n = self.dim
        products = (self._stacked @ rho).reshape(rho.shape[:-2] + (n, -1))
        return products[..., :n], products[..., n:] @ self._jumps_dag

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The generator on an ``n x n`` matrix or a stack."""
        first, out = self._products(rho)
        out += 0.5 * first
        out += rho @ self._i_h_eff_dag
        return out

    def matvec(self, r: np.ndarray) -> np.ndarray:
        """The generator on the coordinates ``r`` of :func:`to_hermitian_basis`, in their type.

        Real coordinates are those of an exactly Hermitian ``M``, for which the
        Hamiltonian part ``-i(X - X^dag)``, ``X = H_eff M``, is the Hermitian part
        of ``-2i X``: the real part of the coordinates of the two products' sum,
        those of its Hermitian part, are the image's.  Complex coordinates go
        through :meth:`apply`.
        """
        if r.dtype.kind == "c":
            return to_hermitian_basis(self.apply(from_hermitian_basis(r)))
        first, jumps = self._products(from_hermitian_basis(r))
        return np.ascontiguousarray(to_hermitian_basis(first + jumps).real)


@cache
def _hermitian_tables(n: int):
    """Gather tables of ``U`` and ``U^H`` (see :func:`to_hermitian_basis`) for ``n x n`` matrices.

    Each row of either map has one or two nonzeros, so entry ``p`` of its
    product with ``x`` is ``weights[0, p] x[index[0, p]] + weights[1, p] x[index[1, p]]``
    (a diagonal entry picks one element twice, with weights ``1/2``); ``U``
    reads the C-ordered entries of a matrix and ``U^H`` writes them.
    """
    rows, cols = np.triu_indices(n, 1)  # the pairs i < j, in the order of the basis
    diag, upper, lower = np.arange(n) * (n + 1), rows * n + cols, cols * n + rows  # C order
    m, size = rows.shape[0], n * n
    index = np.stack([np.concatenate([diag, lower, lower]), np.concatenate([diag, upper, upper])])
    weights = np.full((2, size), math.sqrt(0.5), dtype=complex)
    weights[:, :n] = 0.5
    weights[:, n + m :] *= [[1j], [-1j]]
    # U^H = conj(U)^T: the two entries of each column of U, in turn
    by_column = np.argsort(index, axis=None, kind="stable").reshape(size, 2).T
    return (index, weights), (by_column % size, weights.reshape(-1)[by_column].conj())


def _pick_two(x: np.ndarray, index: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights[0] x[..., index[0]] + weights[1] x[..., index[1]]``, entry by entry."""
    picked = np.take(np.asarray(x, dtype=complex), index, axis=-1)
    picked *= weights
    return np.add(picked[..., 0, :], picked[..., 1, :])


def to_hermitian_basis(x: np.ndarray) -> np.ndarray:
    """``U x``: the ``(..., n^2)`` Hermitian-basis coordinates of a ``(..., n, n)`` stack ``x``.

    With ``m = n(n-1)/2`` and the pairs ``i < j`` in the row-major order of
    the upper triangle, member ``k < n`` of the basis is ``E_kk``, member
    ``n + p`` is ``(E_ij + E_ji)/sqrt(2)`` and member ``n + m + p`` is
    ``i(E_ij - E_ji)/sqrt(2)`` for the ``p``-th pair.  The coordinate of
    ``rho`` on a member ``B`` is ``Tr(B rho)``; for a Hermitian ``rho`` they
    are ``rho_kk``, ``sqrt(2) Re rho_ij`` and ``sqrt(2) Im rho_ij``, with an
    imaginary part exactly zero when ``rho`` is exactly Hermitian, and the
    real part of ``U x`` is ``U`` of the Hermitian part ``(x + x^dag) / 2``.
    The basis is orthonormal in the Hilbert-Schmidt inner product, so ``U``
    is unitary.  Nothing is validated.
    """
    n = x.shape[-1]
    return _pick_two(x.reshape(x.shape[:-2] + (n * n,)), *_hermitian_tables(n)[0])


def from_hermitian_basis(r: np.ndarray) -> np.ndarray:
    """``U^H r``: the ``(..., n, n)`` stack with the Hermitian-basis coordinates ``(..., n^2)``.

    Inverse of :func:`to_hermitian_basis`.  Real coordinates give exactly
    Hermitian matrices.  Nothing is validated.
    """
    n = math.isqrt(r.shape[-1])
    return _pick_two(r, *_hermitian_tables(n)[1]).reshape(r.shape[:-1] + (n, n))


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state; construct via :func:`validate_state`.

    NumPy reads it as its matrix, so it goes wherever a matrix does.
    """

    matrix: np.ndarray

    def __array__(self, dtype=None, copy=None):  # NumPy 1.x passes no ``copy``
        return np.array(self.matrix, dtype=dtype) if copy else np.asarray(self.matrix, dtype=dtype)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate_state(rho) -> DensityMatrix:
    """Check the density-matrix invariants and wrap ``rho`` on success.

    Raises :class:`StateValidationError` listing every violated invariant
    (see :func:`state_violations`, unit trace to :data:`TRACE_RTOL`) with
    magnitudes.
    """
    if isinstance(rho, DensityMatrix):
        return rho
    rho = as_square(rho, "state")
    violations = state_violations(rho[np.newaxis], TRACE_RTOL)
    if violations:
        raise StateValidationError(violations[0])
    return DensityMatrix(rho)


def state_violations(stack: np.ndarray, trace_rtol) -> dict[int, list]:
    """The density-matrix invariants of every matrix of a ``(T, n, n)`` stack, in one pass.

    Maps the index of each matrix that fails to its ``(invariant, magnitude,
    tolerance)`` violations: Hermiticity to ``HERMITICITY_RTOL``, unit trace
    to ``trace_rtol`` (both relative to ``max(||rho||_F, 1)``), then
    positive semidefiniteness to ``POSITIVITY_FLOOR``, which is reported only
    when the other two hold.  Matrices that pass are absent.  ``trace_rtol``
    may hold one budget per matrix; one batched ``eigvalsh`` serves them all.
    """
    adjoint = stack.conj().transpose(0, 2, 1)
    scale = np.maximum(np.linalg.norm(stack, axis=(1, 2)), 1.0)
    herm, herm_bound = np.linalg.norm(stack - adjoint, axis=(1, 2)), HERMITICITY_RTOL * scale
    trace = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    trace_bound = trace_rtol * scale
    lowest = np.linalg.eigvalsh(0.5 * (stack + adjoint)).min(axis=1)
    herm_bad, trace_bad = herm > herm_bound, trace > trace_bound
    negative = ~herm_bad & ~trace_bad & (lowest < POSITIVITY_FLOOR)
    report = {}
    for i in np.flatnonzero(herm_bad | trace_bad | negative).tolist():
        violations = []
        if herm_bad[i]:
            violations.append(("hermiticity", float(herm[i]), float(herm_bound[i])))
        if trace_bad[i]:
            violations.append(("trace", float(trace[i]), float(trace_bound[i])))
        if negative[i]:
            violations.append(("positivity", float(lowest[i]), POSITIVITY_FLOOR))
        report[i] = violations
    return report


def apply_generator(model: LindbladModel, rho) -> np.ndarray:
    """Apply the generator: ``-i[H, rho] + sum_i g_i (A rho A^dag - {A^dag A, rho}/2)``.

    ``rho`` need not be a physical state; the map is linear.  The result is
    traceless, and Hermitian whenever ``rho`` is.
    """
    return model.operator.apply(as_square(rho, "rho", model.dim))


def apply_adjoint(model: LindbladModel, observable) -> np.ndarray:
    """Apply the adjoint (Heisenberg-picture) generator to an observable.

    ``+i[H, X] + sum_i g_i (A^dag X A - {A^dag A, X}/2)``; the identity is a
    fixed point.
    """
    return model.operator.adjoint.apply(as_square(observable, "observable", model.dim))


def duality_check(model: LindbladModel, rho, observable) -> tuple[complex, complex]:
    """Evaluate both sides of the defining adjoint relation.

    Returns ``(Tr(X . L rho), Tr((L^dag X) . rho))``; the two must agree for
    any ``rho`` and ``X`` of the model's dimension.
    """
    rho = as_square(rho, "rho", model.dim)
    x = as_square(observable, "observable", model.dim)
    forward = complex(np.trace(x @ apply_generator(model, rho)))
    backward = complex(np.trace(apply_adjoint(model, x) @ rho))
    return forward, backward


def random_model(rng: np.random.Generator, dim: int, n_jumps: int = 1) -> LindbladModel:
    """Draw a random valid model: symmetrized Gaussian H, Gaussian jumps, rates in (0, 1]."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    hamiltonian = 0.5 * (g + g.conj().T)
    jumps = []
    for _ in range(n_jumps):
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rate = float(1.0 - rng.uniform(0.0, 1.0))  # uniform on (0, 1]
        jumps.append((rate, op))
    return LindbladModel(hamiltonian, tuple(jumps))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Draw a random full-rank density matrix (Wishart normalized to unit trace)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return validate_state(rho)
