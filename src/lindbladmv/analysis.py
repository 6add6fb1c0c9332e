"""Cross-representation analytics.

Mode decomposition of observable trajectories, eigenvalue clustering with
defectiveness detection (exceptional points), and a wall-clock scaling
benchmark over the propagation methods.
"""

from __future__ import annotations

import functools
import numbers
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .arnoldi import arnoldi_reduce, propagate_reduced
from .errors import DefectiveSpectrumError, ValidationError
from .linalg import _as_array, _is_number, as_square
from .model import random_density, random_model
from .vectorized import Superoperator, build_superoperator, propagate, spectrum
from .vectorized import to_hermitian_basis, unvec, vec

#: Eigenvector condition number beyond which a spectrum counts as defective.
DEFECTIVE_CONDITION_LIMIT = 1e8
#: Modes with amplitude below this fraction of the total are pruned.
AMPLITUDE_PRUNE_RTOL = 1e-12
#: Propagation time of every benchmark cell.
BENCH_TIME = 1.0


@dataclass(frozen=True)
class ModeDecomposition:
    """An observable trajectory as a finite sum of decaying oscillations.

    ``c(t) = sum_m amplitudes[m] * exp(eigenvalues[m] * t)``; decay rates
    and oscillation frequencies are minus the real parts and the imaginary
    parts of the eigenvalues.
    """

    eigenvalues: np.ndarray
    amplitudes: np.ndarray

    @property
    def decay_rates(self) -> np.ndarray:
        return -self.eigenvalues.real

    @property
    def frequencies(self) -> np.ndarray:
        return self.eigenvalues.imag

    def evaluate(self, times) -> np.ndarray:
        """Reconstruct the trajectory at the given times."""
        times = _as_array(times, "times", dtype=float).reshape(-1)
        return np.exp(np.outer(times, self.eigenvalues)) @ self.amplitudes


def observable_modes(superop: Superoperator, rho0, observable) -> ModeDecomposition:
    """Decompose ``Tr(X rho(t))`` into the eigenmodes of the superoperator.

    With the eigenvectors ``V`` of :func:`~lindbladmv.vectorized.spectrum`
    (Hermitian-basis coordinates) and ``Tr(X rho) = conj(U X^dag) . U rho``,
    the amplitudes are the weights ``conj(U X^dag) V`` times the components
    ``V^-1 U rho0``; zero-amplitude modes are pruned.  Raises
    :class:`DefectiveSpectrumError` when the eigenvector basis is too
    ill-conditioned to trust (use :func:`detect_degeneracy` there instead).
    """
    rho0 = as_square(rho0, "rho0", superop.dim_hilbert)
    x = as_square(observable, "observable", superop.dim_hilbert)
    dec = spectrum(superop)
    if dec.eigenvector_condition > DEFECTIVE_CONDITION_LIMIT:
        raise DefectiveSpectrumError(
            f"eigenvector condition {dec.eigenvector_condition:.3e} exceeds "
            f"{DEFECTIVE_CONDITION_LIMIT:.1e}; spectrum is (numerically) defective"
        )
    vectors = dec.right_eigenvectors
    weights = to_hermitian_basis(x.conj().T).conj() @ vectors
    components = np.linalg.solve(vectors, to_hermitian_basis(rho0))
    amplitudes = weights * components
    total = np.abs(amplitudes).sum()
    keep = np.abs(amplitudes) >= AMPLITUDE_PRUNE_RTOL * total if total > 0 else np.abs(amplitudes) > 0
    return ModeDecomposition(dec.eigenvalues[keep], amplitudes[keep])


@dataclass(frozen=True)
class EigenvalueCluster:
    center: complex
    members: tuple
    diameter: float

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class DegeneracyReport:
    """Single-linkage eigenvalue clusters plus a defectiveness verdict.

    ``defective`` is True exactly when the eigenvector condition number
    exceeds the defectiveness threshold, i.e. when coalescing eigenvalues
    come with coalescing eigenvectors (an exceptional point) rather than an
    ordinary degeneracy.
    """

    clusters: tuple
    eigenvector_condition: float
    defective: bool


def check_cluster_tol(cluster_tol, name: str = "cluster_tol") -> None:
    """Reject a ``cluster_tol`` that is not positive and finite, naming it ``name``."""
    if not (_is_number(cluster_tol) and 0.0 < cluster_tol < np.inf):
        raise ValidationError(f"{name} must be positive and finite, got {cluster_tol}")


def detect_degeneracy(superop: Superoperator, cluster_tol: float) -> DegeneracyReport:
    """Cluster the spectrum at scale ``cluster_tol`` and flag defectiveness."""
    check_cluster_tol(cluster_tol)
    dec = spectrum(superop)
    values = dec.eigenvalues
    count = values.shape[0]
    # np.hypot of the parts rounds as Python's abs(z) does; np.abs of a complex
    # array can differ from it in the last bit
    diff = values[:, None] - values[None, :]
    distances = np.hypot(diff.real, diff.imag)
    within = distances <= cluster_tol
    # single linkage: every value takes the lowest index it reaches through close pairs
    labels, lowest = None, np.arange(count)
    while not np.array_equal(labels, lowest):  # until no label moves
        labels = lowest
        lowest = np.where(within, labels, count).min(axis=1)
        lowest = lowest[lowest]
    order = np.argsort(labels, kind="stable")
    clusters = []
    for members in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1):
        diameter = distances[members[:, None], members].max()
        center = complex(values[members].mean())
        clusters.append(EigenvalueCluster(center, tuple(members.tolist()), float(diameter)))
    clusters.sort(key=lambda c: (c.center.real, c.center.imag))
    defective = dec.eigenvector_condition > DEFECTIVE_CONDITION_LIMIT
    return DegeneracyReport(tuple(clusters), dec.eigenvector_condition, defective)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark cell: a propagation method timed at one dimension."""

    n: int
    method: str
    wall_time_s: float
    result_error: float
    status: str = "ok"


def _diagonal_propagate(superop: Superoperator, rho0) -> np.ndarray:
    """The state at ``BENCH_TIME`` from the eigendecomposition of a diagonalizable generator."""
    values, vectors = scipy.linalg.eig(superop.matrix)
    r = vectors @ (np.exp(values * BENCH_TIME) * np.linalg.solve(vectors, vec(rho0)))
    return unvec(r, superop.dim_hilbert)


def _method_runner(method: str):
    """A call ``run(model, superop, rho0)`` that returns ``rho0`` propagated to ``BENCH_TIME``.

    ``full-expm`` and ``expm-action`` run :func:`~lindbladmv.vectorized.propagate`
    as ``propagate --method vec`` and ``--method expm-action`` do, and
    ``arnoldi-<k>`` the reduction of ``propagate --method arnoldi --krylov-dim k``:
    ``k`` caps it, and it stops where its error estimate at ``BENCH_TIME`` passes.
    """
    if method == "full-diagonalization":
        return lambda model, superop, rho0: _diagonal_propagate(superop, rho0)
    if method == "full-expm":
        return lambda model, superop, rho0: propagate(superop, rho0, [BENCH_TIME])[0].matrix
    if method == "expm-action":
        return lambda model, superop, rho0: propagate(model, rho0, [BENCH_TIME])[0].matrix
    if isinstance(method, str) and method.startswith("arnoldi-"):
        digits = method.removeprefix("arnoldi-")
        if not digits.isdecimal():
            raise ValidationError(f"bad arnoldi method tag {method!r}")
        k = int(digits)
        return lambda model, superop, rho0: propagate_reduced(
            arnoldi_reduce(model, rho0, min(k, model.dim**2 - 1), BENCH_TIME), [BENCH_TIME]
        )[0]
    raise ValidationError(f"unknown benchmark method {method!r}")


def run_benchmark(
    dims,
    methods,
    seed: int = 0,
    *,
    repeats: int = 5,
    timeout_s: float | None = None,
) -> list[BenchRecord]:
    """Time every method propagating the same random model at each dimension.

    Per cell: one discarded warm-up run, then the median of ``repeats``
    timed runs on the monotonic clock, each propagating to ``BENCH_TIME``.
    ``result_error`` is the HS-norm distance of the produced state from a
    dense eigendecomposition reference.  A warm-up run exceeding
    ``timeout_s`` marks the cell ``"timeout"`` instead of aborting the
    sweep.  ``dims`` must list distinct integers (NumPy's included, ``bool``
    not) and ``methods`` distinct tags, at least one of each; ``seed`` must
    be a non-negative integer, ``repeats`` an integer of at least 1 and
    ``timeout_s``, when given, a non-negative number.  All of them, every
    method tag included, are checked before any model is built.
    """
    dims, methods = list(dims), list(methods)
    if not dims or not methods:
        raise ValidationError("a benchmark needs at least one dimension and one method")
    if not all(_is_number(n, numbers.Integral) for n in dims):
        raise ValidationError(f"benchmark dimensions must be integers, got {dims!r}")
    dims = [int(n) for n in dims]
    if len(set(dims)) < len(dims) or len(set(methods)) < len(methods):
        raise ValidationError(f"benchmark cells must not repeat, got {dims!r} and {methods!r}")
    if any(n < 2 for n in dims):
        raise ValidationError("benchmark dimensions must be >= 2")
    if not _is_number(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    if not _is_number(repeats, numbers.Integral) or repeats < 1:
        raise ValidationError(f"repeats must be an integer >= 1, got {repeats!r}")
    if timeout_s is not None and not (_is_number(timeout_s) and timeout_s >= 0.0):  # NaN fails too
        raise ValidationError(f"timeout_s must be a number >= 0, got {timeout_s!r}")
    runners = [_method_runner(method) for method in methods]
    rng = np.random.default_rng(seed)
    records = []
    for n in dims:
        model = random_model(rng, n)
        rho0 = random_density(rng, n)
        superop = build_superoperator(model)
        reference = _diagonal_propagate(superop, rho0)
        for method, runner in zip(methods, runners):
            run = functools.partial(runner, model, superop, rho0)
            start = time.perf_counter()
            result = run()  # warm-up, discarded from timing
            warmup = time.perf_counter() - start
            if timeout_s is not None and warmup > timeout_s:
                records.append(BenchRecord(n, method, warmup, float("nan"), "timeout"))
                continue
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                result = run()
                samples.append(time.perf_counter() - start)
            error = float(np.linalg.norm(result - reference))
            records.append(BenchRecord(n, method, float(np.median(samples)), error))
    return records


def fit_scaling_slopes(records) -> dict[str, float]:
    """Least-squares slope of ``log(wall time)`` against ``log(n)`` per method.

    Only completed cells count, and a method gets a slope only when they
    span at least two distinct ``n``.
    """
    by_method: dict[str, list[BenchRecord]] = {}
    for rec in records:
        if rec.status == "ok":
            by_method.setdefault(rec.method, []).append(rec)
    slopes = {}
    for method, recs in by_method.items():
        if len({r.n for r in recs}) < 2:
            continue
        xs = np.log([r.n for r in recs])
        ys = np.log([max(r.wall_time_s, 1e-12) for r in recs])
        slopes[method] = float(np.polyfit(xs, ys, 1)[0])
    return slopes


def benchmark_csv(records) -> str:
    """Flat CSV, one row per record: ``n,method,wall_time_s,result_error,status``.

    A cell that did not finish has an empty error and its status (its wall
    time is the measured time before cut-off).
    """
    lines = ["n,method,wall_time_s,result_error,status"]
    for r in records:
        error = "" if np.isnan(r.result_error) else repr(float(r.result_error))
        lines.append(f"{r.n},{r.method},{float(r.wall_time_s)!r},{error},{r.status}")
    return "\n".join(lines) + "\n"
