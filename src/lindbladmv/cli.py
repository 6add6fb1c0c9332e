"""Command-line front end.

Subcommands: ``make-tls`` (model file generator), ``superop`` (print the
vectorized generator matrix), ``spectrum`` (eigenvalues by any of the three
representations), ``propagate`` (observable trajectories as CSV),
``degeneracy`` (eigenvalue clusters / exceptional points) and ``bench``
(scaling benchmark).  Data goes to stdout or ``--out``; diagnostics go to
stderr.  Exit codes: 0 success, 2 parse/validation error (an ``--out``
that cannot be written included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np
import orjson

from . import analysis, arnoldi, heisenberg, modelio, tls, vectorized
from .errors import NumericalError, ValidationError
from .linalg import ACTION_RTOL, eigvals
from .model import validate_state

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _csv_lines(table: np.ndarray) -> list:
    """One line per row of a float ``table``: the ``repr`` of each entry, comma-separated.

    orjson writes every cell in the shortest spelling that reads back to the same float, the
    digits ``repr`` writes. The two spell a cell differently only when it is not finite
    (``null``), non-zero below ``1e-4`` (``0.00001`` for ``1e-05``) or at least ``1e16``
    (``1e16`` for ``1e+16``); ``repr`` spells those cells, and the rest of their row stays.
    """
    text = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    lines = text[2:-2].split("],[") if len(table) else []
    size = np.abs(table)
    respell = ~((size >= 1e-4) & (size < 1e16) | (table == 0.0))  # a NaN fails every test
    for i in np.flatnonzero(respell.any(axis=1)):
        cells = lines[i].split(",")
        for j in np.flatnonzero(respell[i]):
            cells[j] = repr(float(table[i, j]))
        lines[i] = ",".join(cells)
    return lines


def _emit(text: str, out_path) -> None:
    if out_path:
        with modelio.open_for_writing(out_path) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_make_tls(args) -> int:
    params = tls.TLSParams(args.detuning, args.drive, args.decay)
    model = tls.build_tls(params)
    modelio.save_model(args.out, model, basis_labels=tls.BASIS_LABELS)
    return EXIT_OK


def cmd_superop(args) -> int:
    model = modelio.load_model(args.model)
    superop = vectorized.build_superoperator(model)
    matrix = superop.matrix
    size = matrix.shape[0]
    parts = _csv_lines(np.stack([matrix.real, matrix.imag], axis=-1).reshape(-1, 2))
    lines = [f"# vec convention: {superop.convention}", "row,col,re,im"]
    lines += [f"{p // size},{p % size},{re_im}" for p, re_im in enumerate(parts)]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _needs_method(args, dest: str, method: str) -> None:
    """Reject the option stored in ``dest`` when it is set and ``--method`` is not ``method``,
    the one method that reads it."""
    if getattr(args, dest) is not None and args.method != method:
        option = "--" + dest.replace("_", "-")
        raise ValidationError(f"{option} needs --method {method}, not --method {args.method}")


def _check_dim(option: str, matrix: np.ndarray, model) -> np.ndarray:
    """``matrix``, read from the file of ``option``, once its dimension is the model's."""
    if matrix.shape[0] != model.dim:
        raise ValidationError(
            f"{option} has dimension {matrix.shape[0]}, but the model has dimension {model.dim}"
        )
    return matrix


def cmd_spectrum(args) -> int:
    _needs_method(args, "krylov_dim", "arnoldi")
    if args.krylov_dim is not None and args.krylov_dim < 0:  # n^2 - 1 needs the model
        raise ValidationError(f"--krylov-dim must be >= 0, got {args.krylov_dim}")
    for dest, method in (("state", "arnoldi"), ("basis", "heisenberg")):  # each file, one method
        _needs_method(args, dest, method)
        if args.method == method and not getattr(args, dest):
            raise ValidationError(f"--method {method} requires --{dest}")
    model = modelio.load_model(args.model)
    if args.method == "vec":
        values = eigvals(vectorized.hermitian_matrix(vectorized.build_superoperator(model)))
    elif args.method == "arnoldi":
        rho0 = validate_state(_check_dim("--state", modelio.load_state(args.state), model))
        values = eigvals(arnoldi.arnoldi_reduce(model, rho0, args.krylov_dim).hessenberg)
    else:  # heisenberg
        ops = [matrix for _, matrix in modelio.load_observables(args.basis)]
        _check_dim("--basis", ops[0], model)  # the file's matrices share one dim
        rep = heisenberg.close_set(model, ops)
        # conjugate so all three methods print directly comparable values (+ 0j: no -0.0)
        values = np.conj(eigvals(rep.generator)) + 0j
    values = values[np.lexsort((values.imag, values.real))]  # the conjugate reverses each pair
    _emit("\n".join(_csv_lines(np.column_stack([values.real, values.imag]))) + "\n", args.out)
    return EXIT_OK


def _trajectory_rows(model, rho0, observables, times, method, krylov_dim):
    """Observable values at every time: row ``i`` of the result belongs to ``times[i]``."""
    labels = [label for label, _ in observables]
    ops = np.stack([matrix for _, matrix in observables])
    if method == "heisenberg":
        rep = heisenberg.close_set(model, ops)
        initial = heisenberg.expectations(rep.basis, rho0)
        return labels, heisenberg.propagate_expectations(rep, initial, times)
    if method == "arnoldi":
        reduction = arnoldi.arnoldi_reduce(model, rho0, krylov_dim, times[-1])
        if not reduction.estimate <= ACTION_RTOL:  # a NaN estimate warns too
            sys.stderr.write(
                f"warning: the Arnoldi reduction of size {reduction.size} has an error estimate "
                f"of {reduction.estimate:.3e} (relative to the state norm) at t = {times[-1]:g}, "
                f"above ACTION_RTOL = {ACTION_RTOL:.0e}; raise --krylov-dim\n"
            )
        states = arnoldi.propagate_reduced(reduction, times)
    else:  # vec or expm-action
        system = vectorized.build_superoperator(model) if method == "vec" else model
        states = np.stack([state.matrix for state in vectorized.propagate(system, rho0, times)])
    return labels, heisenberg.expectations(ops, states)


def cmd_propagate(args) -> int:
    if args.steps < 1:
        raise ValidationError(f"--steps must be >= 1, got {args.steps}")
    if not np.isfinite([args.t0, args.t1]).all():
        raise ValidationError(f"--t0 and --t1 must be finite, got {args.t0} and {args.t1}")
    if args.t0 < 0.0:
        raise ValidationError(f"--t0 must be >= 0, got {args.t0}")
    if args.t1 < args.t0:
        raise ValidationError(f"--t1 must be >= --t0, got {args.t0} > {args.t1}")
    if args.steps == 1 and args.t1 != args.t0:
        raise ValidationError(f"--steps 1 needs --t1 equal to --t0, got {args.t1} != {args.t0}")
    _needs_method(args, "krylov_dim", "arnoldi")
    if args.krylov_dim is not None and args.krylov_dim < 0:
        raise ValidationError(f"--krylov-dim must be >= 0, got {args.krylov_dim}")
    model = modelio.load_model(args.model)
    rho0 = validate_state(_check_dim("--state", modelio.load_state(args.state), model))
    observables = modelio.load_observables(args.observables)
    _check_dim("--observables", observables[0][1], model)  # the file's matrices share one dim
    times = np.linspace(args.t0, args.t1, args.steps)
    labels, rows = _trajectory_rows(model, rho0, observables, times, args.method, args.krylov_dim)
    header = "t," + ",".join(f"{label}_re,{label}_im" for label in labels)
    parts = np.stack([rows.real, rows.imag], axis=-1).reshape(len(times), -1)  # re, im by turns
    lines = [header] + _csv_lines(np.column_stack([times, parts]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_degeneracy(args) -> int:
    analysis.check_cluster_tol(args.cluster_tol, "cluster_tol (--cluster-tol)")
    model = modelio.load_model(args.model)
    superop = vectorized.build_superoperator(model)
    report = analysis.detect_degeneracy(superop, args.cluster_tol)
    lines = []
    for cluster in report.clusters:
        lines.append(
            f"cluster size={cluster.size} "
            f"center=({cluster.center.real:.6g},{cluster.center.imag:.6g}) "
            f"diameter={cluster.diameter:.3e}"
        )
    lines.append(f"eigenvector_condition: {report.eigenvector_condition:.6e}")
    lines.append(f"defective: {'yes' if report.defective else 'no'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        dims = [int(s) for s in args.dims.split(",") if s]
    except ValueError:
        raise ValidationError(f"--dims must list integers, got {args.dims!r}") from None
    methods = [s for s in args.methods.split(",") if s]
    existed = os.path.lexists(args.out)
    modelio.open_for_writing(args.out, "a").close()  # an unwritable --out fails before any timing
    if not existed:  # a rejected argument leaves no file behind
        os.remove(args.out)
    records = analysis.run_benchmark(
        dims, methods, seed=args.seed, repeats=args.repeats, timeout_s=args.timeout
    )
    _emit(analysis.benchmark_csv(records), args.out)
    slopes = analysis.fit_scaling_slopes(records)
    for method in sorted(slopes, key=slopes.get):
        sys.stdout.write(f"slope {method} = {slopes[method]:.3f}\n")
    if len(slopes) > 1:
        ordering = " < ".join(sorted(slopes, key=slopes.get))
        sys.stdout.write(f"slope ordering: {ordering}\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindbladmv",
        description="Markovian open-system dynamics as matrix-vector linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-tls", help="write a driven two-level model file")
    p.add_argument("--detuning", type=float, required=True)
    p.add_argument("--drive", type=float, required=True)
    p.add_argument("--decay", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_tls)

    p = sub.add_parser("superop", help="print the vectorized generator matrix")
    p.add_argument("model")
    p.add_argument("--out")
    p.set_defaults(func=cmd_superop)

    p = sub.add_parser("spectrum", help="print eigenvalues, one re,im pair per line")
    p.add_argument("model")
    p.add_argument("--method", choices=("vec", "arnoldi", "heisenberg"), default="vec")
    p.add_argument("--state", help="initial state file (arnoldi)")
    p.add_argument("--krylov-dim", type=int, dest="krylov_dim")
    p.add_argument("--basis", help="operator basis file (heisenberg)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("propagate", help="emit observable trajectories as CSV")
    p.add_argument("model")
    p.add_argument("--state", required=True)
    p.add_argument("--observables", required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("vec", "expm-action", "arnoldi", "heisenberg"),
        default="vec",
    )
    p.add_argument("--krylov-dim", type=int, dest="krylov_dim")
    p.add_argument("--out")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("degeneracy", help="report eigenvalue clusters and defectiveness")
    p.add_argument("model")
    p.add_argument("--cluster-tol", type=float, required=True, dest="cluster_tol")
    p.add_argument("--out")
    p.set_defaults(func=cmd_degeneracy)

    p = sub.add_parser("bench", help="run the scaling benchmark and write its CSV")
    p.add_argument("--dims", required=True, help="comma-separated Hilbert dimensions")
    p.add_argument("--methods", required=True, help="comma-separated method tags")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--timeout", type=float, default=None, help="per-cell budget in seconds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
