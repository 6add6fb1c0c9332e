"""Dense linear algebra kernels.

Hilbert-Schmidt inner products, the Arnoldi process, matrix exponentials
(full and action-on-vector), the time-grid stepper shared by every
propagation path and a general non-Hermitian eigensolver.  The dense
exponential, the eigensolvers, the stepper and the Arnoldi process keep a
real floating input real, so a generator written in real coordinates runs
in real arithmetic; everything else is complex.  All functions but
:func:`orthogonalize`, which updates its vector in place, are pure: inputs
are never modified and results are fresh arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, EigenSolverError, ExpOverflowError, ValidationError

#: Machine epsilon of double precision, the unit of every round-off budget.
EPS = float(np.finfo(float).eps)
#: Arnoldi breakdown: a residual at most this fraction of the norm of the image
#: it was orthogonalized from leaves an invariant Krylov space.
BREAKDOWN_RTOL = 1e-12
#: Error budget of one :func:`expm_action` call: the error estimates of all
#: Krylov bases on the way to an output sum to at most this times the largest
#: norm of a vector a basis starts from.
ACTION_RTOL = 1e-12
#: :func:`arnoldi_iteration` with a horizon reads its error estimate there
#: after every this many steps.
GROWTH_CHECK = 10
#: Most products with the operator in one Krylov basis of :func:`expm_action`.
KRYLOV_CAP = 100
#: Most Krylov bases one :func:`expm_action` call builds before it gives up.
MAX_BASES = 10_000


def _is_number(x, kind=numbers.Real) -> bool:
    """Whether ``x`` is a ``kind`` number (NumPy's included) and not a ``bool``:
    the one check of every scalar option, ``kind=numbers.Integral`` for integers."""
    return isinstance(x, kind) and not isinstance(x, bool)


def _as_float(x) -> float:
    """``float(x)`` of a number, with an int past the float range taken as an infinity."""
    try:
        return float(x)
    except OverflowError:
        return np.inf if x > 0 else -np.inf


def _holds_boolean(a) -> bool:
    """Whether ``a`` is, or its nested lists and tuples hold, a boolean or a boolean array."""
    if isinstance(a, (list, tuple)):
        return any(map(_holds_boolean, a))
    return isinstance(a, (bool, np.bool_)) or isinstance(a, np.ndarray) and a.dtype.kind == "b"


def _as_array(a, name: str, ndims=None, n=None, *, dtype=complex) -> np.ndarray:
    """``a`` as an array of finite ``dtype`` entries: the one check of every input array.

    ``ndims`` (``None`` for any shape) lists the admissible numbers of axes:
    1 for a vector, 2 for a square matrix, 3 for a ``(k, n, n)`` stack.  The
    last axis, and for a matrix or stack the one before it, then has a
    length of at least 1, and of ``n`` when given.  ``dtype=None`` keeps a
    real floating ``a`` float and makes anything else complex.  Entries are
    numbers as :func:`_is_number` has them: booleans, text, complex entries
    for ``dtype=float`` and ints past the float range raise
    :class:`ValidationError`, and so do ragged, misshapen and non-finite input.
    """
    try:
        arr = np.asarray(a)
        kind = arr.dtype.kind
        # True is no number, and no time; numpy reads one among numbers in a list as 1
        if kind == "b" or kind in "iufcO" and not isinstance(a, np.ndarray) and _holds_boolean(a):
            raise ValidationError(f"{name} must be numbers, not booleans")
        if not (kind in "iuf" or kind == "c" and dtype is not float or kind == "O" and all(
            _is_number(x, numbers.Number) for x in arr.flat  # ints past int64, mixed objects
        )):
            raise TypeError(f"entries of kind {kind!r}")
        arr = arr.astype(dtype or (float if kind == "f" else complex), copy=False)
    except (TypeError, ValueError, OverflowError) as exc:  # text, complex as float, ragged
        real = "real " if dtype is float else ""
        raise ValidationError(f"{name} must be {real}numbers with one shape") from exc
    if ndims is not None:
        last = arr.shape[-1] if arr.ndim else 0
        square = arr.ndim < 2 or arr.shape[-2] == last
        if arr.ndim not in ndims or not square or last < 1 or (n is not None and last != n):
            m = "n" if n is None else n
            forms = " or ".join((f"({m},)", f"({m}, {m})", f"(k, {m}, {m})")[d - 1] for d in ndims)
            raise ValidationError(f"{name} must have shape {forms}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def as_square(a, name: str = "matrix", n: int | None = None, *, dtype=complex) -> np.ndarray:
    """``a`` as a finite square matrix, ``n x n`` when ``n`` is given: the
    square-matrix case of :func:`_as_array`, with its ``dtype``."""
    return _as_array(a, name, (2,), n, dtype=dtype)


def hs_inner(a, b):
    """Hilbert-Schmidt inner product ``Tr(a^dag b)`` of same-sized square matrices.

    Either argument may be a ``(k, n, n)`` stack; the result carries the
    stack axes, ``a``'s first (``[i, j]`` is ``Tr(a[i]^dag b[j])`` for two
    stacks).  Two single matrices give a complex scalar.
    """
    a = _as_array(a, "a", (2, 3))
    b = _as_array(b, "b", (2, 3), a.shape[-1])
    size = a.shape[-1] ** 2
    out = a.reshape(-1, size).conj() @ b.reshape(-1, size).T
    out = out.reshape(a.shape[:-2] + b.shape[:-2])
    return complex(out) if out.ndim == 0 else out


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm induced by :func:`hs_inner`."""
    return float(np.linalg.norm(as_square(a, "a")))


def orthogonalize(basis: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Remove from ``u``, in place, its components along the orthonormal rows of ``basis``.

    Classical Gram-Schmidt over the whole ``(k, N)`` block with one
    re-orthogonalization pass, which keeps the basis orthonormal to working
    precision.  Returns the ``k`` inner products ``<basis[i], u>`` removed.
    """
    coefficients = (basis @ u.conj()).conj()
    u -= coefficients @ basis
    correction = (basis @ u.conj()).conj()
    u -= correction @ basis
    return coefficients + correction


def arnoldi_iteration(apply, v0: np.ndarray, k: int, horizon=None, budget=ACTION_RTOL):
    """Arnoldi process: up to ``k`` applications of ``apply`` from the unit vector ``v0``.

    Returns ``(basis, hess, breakdown_at, estimate)`` with ``A V_k = V_{k+1} H``
    (``apply(basis[j]) = sum_i hess[i, j] basis[i]``): row 0 of ``basis`` is
    ``v0``, each image is orthogonalized against all earlier rows by
    :func:`orthogonalize` and the subdiagonal is real and non-negative.
    ``basis`` has ``k + 1`` rows and ``hess`` is ``(k + 1, k)``, unless a
    residual is at most ``BREAKDOWN_RTOL`` times the norm of its image: that
    breakdown at step ``j`` returns the ``j + 1`` rows, which span an
    invariant space, and a ``(j + 2, j + 1)`` ``hess`` whose last row holds
    the residual.  Both take the dtype of ``v0``; from a real ``v0``,
    ``apply`` must map real vectors to real ones.

    With a ``horizon``, every ``GROWTH_CHECK`` columns short of ``k`` it reads
    the :func:`_estimate` there, and the first one at most ``budget`` ends the
    process with ``j + 2`` rows; ``estimate`` is the last one read, or ``None``.
    """
    basis = np.empty((k + 1, v0.shape[0]), dtype=v0.dtype)
    hess = np.zeros((k + 1, k), dtype=v0.dtype)
    basis[0] = v0
    estimate = None
    for j in range(k):
        u = apply(basis[j])
        scale = np.linalg.norm(u)
        hess[: j + 1, j] = orthogonalize(basis[: j + 1], u)
        residual = np.linalg.norm(u)
        hess[j + 1, j] = residual
        if residual <= BREAKDOWN_RTOL * scale:
            return basis[: j + 1], hess[: j + 2, : j + 1], j, estimate
        basis[j + 1] = u / residual
        if horizon is not None and j + 1 < k and (j + 1) % GROWTH_CHECK == 0:
            estimate = _estimate(hess[: j + 2, : j + 1], horizon)
            if estimate <= budget:
                return basis[: j + 2], hess[: j + 2, : j + 1], None, estimate
    return basis, hess, None, estimate


def expm(m, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(m * t)`` for a real scalar ``t``, real for a real floating ``m``.

    Uses scaling-and-squaring with a Pade core, with the order chosen from
    the scaled norm.  Overflow raises :class:`ExpOverflowError`, never
    silently saturates.
    """
    m = as_square(m, "m", dtype=None)
    t = _as_array(t, "t", dtype=float)
    if t.ndim:
        raise ValidationError(f"t must be a scalar, got shape {t.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.linalg.expm(m * t)
    if not np.isfinite(result).all():
        raise ExpOverflowError(
            f"exp(m*t) overflowed for ||m*t|| = {np.linalg.norm(m) * abs(t):.3e}"
        )
    return result


def as_times(times, name: str = "times") -> np.ndarray:
    """Coerce ``times`` to a 1-D float grid that is finite, non-negative and ascending."""
    grid = _as_array(times, name, dtype=float).reshape(-1)
    if (grid < 0.0).any() or (np.diff(grid) < 0.0).any():
        raise ValidationError(f"{name} must be non-negative and ascending")
    return grid


def _stepped(a, y, times, stop=None) -> np.ndarray:
    """Rows ``exp(a t_i) y`` for the ``times`` of a grid that starts from ``t = 0``.

    The time-grid stepper of every propagation: the solution steps from
    each time to the next, in real arithmetic when ``a`` and ``y`` are real,
    and one ``scipy.linalg.expm(a dt)`` serves every run of equal steps (a
    uniform grid costs one exponential; steps within ``8 eps |t|``, the
    rounding of the times themselves, count as equal).  The times are
    trusted as given, ascending or a single negative one, and overflow is
    left in the rows for callers to report.  ``stop``, when given, is called
    with each time and its row; the rows end before the first one it
    rejects, and none past it is computed.
    """
    out = np.empty((len(times), y.shape[0]), dtype=np.result_type(a, y))
    previous, step, propagator = 0.0, None, None
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(times):
            dt = t - previous
            if dt != 0.0:
                if step is None or abs(dt - step) > 8.0 * EPS * abs(t):
                    step, propagator = dt, scipy.linalg.expm(dt * a).astype(out.dtype, copy=False)
                y = propagator @ y
            if stop is not None and stop(t, y):
                return out[:i]
            out[i] = y
            previous = t
    return out


def _krylov_columns(hess: np.ndarray, taus, stop=None) -> np.ndarray:
    """Column 0 of ``exp(tau A)``, one row per ``tau``, for ``A = [[H_k, 0], [h_{k+1,k} e_k^T, 0]]``
    from a ``(k + 1, k)`` Arnoldi ``hess``.

    That column is ``exp(tau H_k) e_1`` followed by ``h_{k+1,k} [tau phi_1(tau H_k)]_{k,1}``,
    with ``phi_1(z) = (e^z - 1) / z``: the Krylov coefficients from a unit start and its
    error estimate.  Both step together, ``exp((s + tau) A) = exp(tau A) exp(s A)``, by
    :func:`_stepped`, which passes ``stop`` each time and its row.
    """
    k = hess.shape[1]
    augmented = np.zeros((k + 1, k + 1), dtype=hess.dtype)
    augmented[:, :k] = hess
    return _stepped(augmented, np.eye(1, k + 1, dtype=hess.dtype)[0], taus, stop)


def _estimate(hess: np.ndarray, horizon: float) -> float:
    """The error estimate ``h_{k+1,k} |[T phi_1(T H_k)]_{k,1}|`` at ``T = horizon`` of a
    ``(k + 1, k)`` Arnoldi ``hess`` from a unit start: the last entry of :func:`_krylov_columns`."""
    return float(abs(_krylov_columns(hess, [horizon])[0, -1]))


def expm_action(m, v, t=1.0) -> np.ndarray:
    """Compute ``exp(m * t) @ v`` without forming the full exponential.

    ``m`` is a square matrix or a matrix-free linear operator: any object
    with a ``shape`` of ``(N, N)`` and a ``matvec(x)`` method returning the
    product with a length-``N`` vector, such as
    :class:`lindbladmv.model.LiouvilleOperator`, and optionally a
    ``dtype`` (complex when absent).  An operator is trusted as given; a
    matrix is validated.  The Krylov basis and the result take the result
    type of ``m`` and ``v``, so a real operator and a real ``v`` run in real
    arithmetic.  ``t`` is a finite scalar, which gives a length-``N``
    result, or a 1-D grid of finite, non-negative, ascending times, which
    gives ``(T, N)`` with row ``i`` equal to ``exp(m t_i) @ v``.

    Each Krylov basis comes from :func:`arnoldi_iteration` with at most
    ``KRYLOV_CAP`` products with ``m``.  At a time ``tau`` after the basis
    starts, the exponential of its augmented ``(k + 1) x (k + 1)`` matrix,
    stepped by :func:`_stepped`, gives the coefficients of
    ``beta V_k exp(tau H_k) e_1`` and their error estimate
    ``beta h_{k+1,k} |[tau phi_1(tau H_k)]_{k,1}|`` (``beta`` the norm of
    the vector the basis starts from).  One budget holds for the whole call:
    an estimate passes when it is at most ``ACTION_RTOL * beta * |tau| / |t_last|``,
    its share of the span to the last grid time, so the estimates of all
    bases on the way to any output sum to at most ``ACTION_RTOL`` times the
    largest ``beta``; a NaN estimate fails.  The basis grows until its
    estimate at the last grid time passes (:func:`arnoldi_iteration`'s
    ``horizon``), or up to the cap.  Its first substep aims at the next grid time
    (after a breakdown it is tried first) and halves until its estimate
    passes; from a grid time it reached, it serves every later grid time up
    to the first whose estimate fails, and the next basis starts from the
    last time served.

    Raises :class:`ConvergenceError`, whose ``residual`` is the last failing
    estimate of a substep or grid time over its budget, when no halving lets
    a step pass or the grid is not covered within ``MAX_BASES`` bases.
    """
    if hasattr(m, "matvec"):
        apply, shape, dtype, is_zero = m.matvec, tuple(m.shape), getattr(m, "dtype", complex), False
    else:
        m = as_square(m, "m", dtype=None)
        apply, shape, dtype, is_zero = m.dot, m.shape, m.dtype, not m.any()
    n = shape[0]
    v = _as_array(v, "v", (1,), n, dtype=None)
    v = v.astype(np.result_type(dtype, v), copy=False)
    t = _as_array(t, "t", dtype=float)
    scalar = t.ndim == 0
    grid = t.reshape(1) if scalar else as_times(t, "t")
    out = np.empty((grid.shape[0], n), dtype=v.dtype)
    if is_zero:
        out[:] = v
        return out[0] if scalar else out
    span, excess = np.abs(grid).max(initial=0.0), None

    def misses(tau, psi):  # the estimate fails its share of the budget, or is NaN
        nonlocal excess
        if abs(psi[-1]) <= ACTION_RTOL * abs(tau) / span:
            return False
        excess = abs(psi[-1]) * span / (ACTION_RTOL * abs(tau))
        return True

    starts = grid == 0.0
    out[starts] = v
    dim = min(KRYLOV_CAP, n)
    w, now, i, step_guess, bases = v, 0.0, np.count_nonzero(starts), np.inf, 0
    while i < grid.shape[0]:  # one Krylov basis per pass
        beta = np.linalg.norm(w)
        if beta == 0.0 or not np.isfinite(beta):  # zero stays zero; overflow is reported by callers
            out[i:] = w
            break
        horizon, remaining, rows = grid[-1] - now, grid[i] - now, ()
        bases += 1
        if bases <= MAX_BASES:
            budget = ACTION_RTOL * abs(horizon) / span
            basis, hess, breakdown_at, _ = arnoldi_iteration(apply, w / beta, dim, horizon, budget)
            whole = breakdown_at is not None or abs(step_guess) >= abs(remaining)
            tau = remaining if whole else step_guess
            for _halving in range(80):
                rows = _krylov_columns(hess, grid[i:] - now if tau == remaining else [tau], misses)
                if len(rows):
                    break
                tau *= 0.5
        if not len(rows):
            raise ConvergenceError(f"expm_action did not reach t = {float(grid[-1])}", residual=excess)
        states = (beta * rows[:, : hess.shape[1]]) @ basis[: hess.shape[1]]
        if tau != remaining:  # short of grid[i]: the next basis goes on from here
            w, now, step_guess = states[0], now + tau, 2.0 * tau  # let accepted steps grow back
        else:  # landed on grid[i] and served the grid times after it that passed
            j = i + len(rows)
            out[i:j] = states
            w, step_guess, now, i = states[-1], 2.0 * (grid[j - 1] - now), grid[j - 1], j
    return out[0] if scalar else out


def propagate_linear(a, y0, times) -> np.ndarray:
    """Solve ``y' = a y`` from ``y(0) = y0``: row ``i`` of the result is ``exp(a t_i) y0``.

    ``times`` must be finite, non-negative and ascending.  A matrix ``a``
    goes through :func:`_stepped`, a matrix-free operator (see
    :func:`expm_action`) through one :func:`expm_action` call over the
    whole grid.  Raises :class:`ExpOverflowError` at the first time whose
    row is not finite.
    """
    times = as_times(times)
    matrix_free = hasattr(a, "matvec")
    if not matrix_free:
        a = as_square(a, "a", dtype=None)
    y = _as_array(y0, "y0", (1,), a.shape[0], dtype=None)
    out = expm_action(a, y, times) if matrix_free else _stepped(a, y, times)
    overflowed = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if overflowed.size:
        raise ExpOverflowError(f"exp(a*t) y0 overflowed at t = {float(times[overflowed[0]])}")
    return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a dense (generally non-Hermitian) matrix.

    ``eigenvalues[i]`` pairs with column ``i`` of ``right_eigenvectors``;
    ``residual_norms[i]`` bounds ``||M v_i - lambda_i v_i||``.  A large
    ``eigenvector_condition`` signals a near-defective matrix (eigenvalue
    crossings where the eigenvectors coalesce), which callers can use to
    detect degeneracies instead of trusting individual eigenvectors.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    residual_norms: np.ndarray
    eigenvector_condition: float


def _dense_eig(m, right: bool):
    """``(m, eigenvalues, right eigenvectors or None, order)``: LAPACK's results, and the
    order that sorts them by real part, then imaginary part.

    A real floating ``m`` stays real: LAPACK's real solver returns complex
    eigenvalues in exact conjugate pairs, the one with positive imaginary
    part first, and real eigenvalues exactly real.
    """
    m = as_square(m, "m", dtype=None)
    try:
        result = scipy.linalg.eig(m, right=right)
    except Exception as exc:  # LAPACK geev convergence failure
        raise EigenSolverError(f"dense eigensolver failed: {exc}") from exc
    values, vectors = result if right else (result, None)
    return m, values, vectors, np.lexsort((values.imag, values.real))


def eigvals(m) -> np.ndarray:
    """All eigenvalues of ``m`` with multiplicity, sorted as :func:`eig` sorts them.

    No eigenvectors, residuals or condition number are computed.
    """
    _, values, _, order = _dense_eig(m, right=False)
    return values[order]


def eig(m) -> EigenDecomposition:
    """All eigenvalues (with multiplicity) and right eigenvectors of ``m``.

    Standard dense route: Hessenberg reduction followed by shifted QR
    iteration (LAPACK), in real arithmetic for a real floating ``m``.
    Output is sorted by real part, then imaginary part.  Never fails at
    defective inputs; those are reported through ``eigenvector_condition``.
    A real ``m`` keeps the residuals and the condition number real too: each
    pair ``v, conj(v)`` enters as ``sqrt(2) Re v, sqrt(2) Im v``, a unitary
    mix of the two that leaves ``kappa_2`` unchanged.
    """
    m, values, vectors, order = _dense_eig(m, right=True)
    if m.dtype.kind == "f":  # LAPACK's x and y of each pair x + iy, x - iy at j, j + 1
        j = np.flatnonzero(values.imag > 0)
        columns = np.where(values.imag < 0, -vectors.imag, vectors.real)
        images = (m @ columns).astype(complex)  # m x and m y, so m v = m x + i m y
        images[:, j] += 1j * images[:, j + 1].real
        images[:, j + 1] = images[:, j].conj()
        columns *= np.where(values.imag == 0.0, 1.0, np.sqrt(2.0))
    else:
        columns, images = vectors, m @ vectors
    residuals = np.linalg.norm(images - vectors * values, axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        condition = float(np.linalg.cond(columns))  # inf for a singular finite matrix
    return EigenDecomposition(values[order], vectors[:, order], residuals[order], condition)
