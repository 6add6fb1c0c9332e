"""Benchmark of the lindbladmv command line, one workload and seed per run.

    python3 clibench/run.py --workload dense-n16 --seed 0 --seconds 25 --trace 0

Writes the workload's inputs from ``--seed``, computes their references,
times ``SETUP_PROBES`` fresh interpreters to ready (``setup_s``), then runs
the CLI operations in rounds inside one worker process (see ``worker.py``),
checks every output and prints one JSON line last: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Medians are
over rounds; a round runs every operation once, interleaved, with a short
fixed reference loop timed between operations as a gauge of the machine's
speed.  Operations that exit non-zero or fail a check count as failed and
their rounds are left out of the medians of the operations they belong to.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import pin_threads

pin_threads()  # before numpy loads, here and in every child, which inherits the environment

import references  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKER = str(HERE / "worker.py")
#: Fresh interpreters timed per run; one import alone wanders by +-15%.
SETUP_PROBES = 7
#: ``setup_s`` is given in seconds at this reference-loop time (see ``setup_sample``).
NOMINAL_REFERENCE_LOOP_S = 1e-3

END_TO_END = {
    "setup_s": "s",
    "op_geomean": "refloop",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "vectorized.superop_mb": "MB",
    "arnoldi.basis_size": "count",
}


def setup_sample(plan_path: str) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to ``lindbladmv.cli`` imported and inputs
    loaded, and the reference-loop time the probe measured right after."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, "--probe", plan_path], stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        reference_loop_s = proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, float(reference_loop_s)


def check_rounds(rounds: list, ops: list, refs, outdir: str) -> tuple[list, int]:
    """Check every output; return per-round per-operation success and the count of wrong outputs."""
    ok = [[code == 0 for code in rnd["codes"]] for rnd in rounds]
    wrong = 0
    reported = 0

    def report(r: int, i: int, message: str) -> None:
        nonlocal reported
        reported += 1
        if reported <= 5:
            sys.stderr.write(f"round {r}, {ops[i][0]} on model {ops[i][1]}: {message}\n")

    def fail(r: int, i: int, message: str) -> None:
        nonlocal wrong
        ok[r][i] = False
        wrong += 1
        report(r, i, f"check failed: {message}")

    for r, rnd in enumerate(rounds):
        spectra = {}
        for i, (op, k) in enumerate(ops):
            if rnd["codes"][i] != 0:
                report(r, i, f"exited with {rnd['codes'][i]}")
                continue
            with open(os.path.join(outdir, f"r{r}-{i}.txt"), encoding="utf-8") as handle:
                text = handle.read()
            try:
                parsed = references.check_output(op, text, refs, refs.points[k])
            except (references.CheckError, ValueError, IndexError) as exc:
                fail(r, i, str(exc))
                continue
            if op.startswith("spectrum."):
                spectra[op, k] = (i, parsed)
        # the three representations must agree with each other, not only with the reference
        for (op, k), (i, values) in spectra.items():
            vec = spectra.get(("spectrum.vec", k))
            if op == "spectrum.vec" or vec is None:
                continue
            tol = 2 * refs.points[k].spectrum_tol
            if references.max_matching_distance(values, vec[1]) > tol:
                fail(r, i, "spectrum disagrees with --method vec")
    return ok, wrong


def op_samples(rounds: list, ok: list, ops: list, name: str, in_loops: bool) -> list:
    """Per timed round, the time of operation ``name`` summed over the models, if all succeeded.

    With ``in_loops`` the sum is divided by the median reference loop of its
    round: on a shared machine a core's speed can drift by +-25% within
    seconds, and the loop, timed between the operations, drifts with it.
    """
    chosen = [i for i, (op, _) in enumerate(ops) if op == name]
    sums = []
    for rnd, good in zip(rounds[1:], ok[1:]):
        if chosen and all(good[i] for i in chosen):
            total = sum(rnd["times"][i] for i in chosen)
            sums.append(total / statistics.median(rnd["ref_loop_s"]) if in_loops else total)
    return sums


def geomean(values) -> float | None:
    values = list(values)
    if not values or None in values:
        return None
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run(args, workload, workdir: str) -> int:
    files = workloads.write_inputs(workload, os.path.join(workdir, "inputs"))
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir)
    ops = [(op, k) for k in range(len(workload.models)) for op in workload.ops]
    plan = {
        "src": str(SRC),
        "files": files,
        "argvs": [workloads.op_argv(op, files["models"][k], files, workload.cluster_tol) for op, k in ops],
        "outdir": outdir,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "result": os.path.join(workdir, "result.json"),
    }
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)

    refs = references.expected_values(workload)
    setup = [] if args.trace else [setup_sample(plan_path) for _ in range(SETUP_PROBES)]
    # a run ends with the round in progress when --seconds have passed, after an untimed one
    timeout = 2 * args.seconds + 120
    proc = subprocess.run([sys.executable, WORKER, plan_path], timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(f"error: worker exited with {proc.returncode}\n")
        return 1
    with open(plan["result"], encoding="utf-8") as handle:
        result = json.load(handle)
    rounds = result["rounds"]
    ok, wrong = check_rounds(rounds, ops, refs, outdir)
    attempted = len(rounds) * len(ops)
    failed = attempted - sum(map(sum, ok))

    def medians(in_loops: bool) -> dict:
        per_op = {}
        for name in workload.ops:
            samples = op_samples(rounds, ok, ops, name, in_loops)
            per_op[name] = statistics.median(samples) if samples else None
        return per_op

    op_s, op_refloop = medians(in_loops=False), medians(in_loops=True)
    summary = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(args.trace),
        "timed_rounds": len(rounds) - 1,
        "rounds_s": [sum(r["times"]) for r in rounds[1:]],
        "ref_loop_s": statistics.median(x for r in rounds[1:] for x in r["ref_loop_s"]),
        "op_geomean": geomean(op_refloop.values()),
        "op_geomean_s": geomean(op_s.values()),
        "op_s": op_s,
        "op_refloop": op_refloop,
    }
    if args.trace:
        traces = [r["trace"] for r in rounds[1:]]
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = statistics.median(t["calls"][layer] for t in traces)
            metrics[f"{layer}.self_s"] = statistics.median(t["self_s"][layer] for t in traces)
        metrics["vectorized.superop_mb"] = max(t["superop_mb"] for t in traces)
        metrics["arnoldi.basis_size"] = max(t["basis_size"] for t in traces)
        units = PER_LAYER
        trace_path = RUNS / f"trace-{workload.name}-seed{workload.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"summary": summary, "rounds": traces}, handle)
    else:
        if summary["op_geomean"] is None:
            raise RuntimeError("an operation of the workload failed in every round")
        metrics = {
            # in reference loops like op_geomean, scaled to seconds at 1 ms per loop
            "setup_s": statistics.median(e / g for e, g in setup) * NOMINAL_REFERENCE_LOOP_S,
            "op_geomean": summary["op_geomean"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        summary["setup_samples_s"] = [e for e, _ in setup]
        summary["setup_ref_loop_s"] = [g for _, g in setup]
        units = END_TO_END
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, help="shrink the workload (tests): grid points per axis, or n")
    args = parser.parse_args(argv)
    if not (SRC / "lindbladmv" / "cli.py").is_file():
        sys.stderr.write(f"error: the program's source is missing ({SRC / 'lindbladmv'})\n")
        return 2
    workload = workloads.build(args.workload, args.seed, args.size)
    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=RUNS)
    try:
        return run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
