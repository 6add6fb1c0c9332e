"""Fresh-interpreter side of the benchmark.

``worker.py --probe PLAN`` imports ``lindbladmv.cli``, loads the workload's
input files and prints ``ready``: the parent times it as one set-up sample.
It then prints the median of a few reference loops, the machine's speed at
that moment.
``worker.py PLAN`` runs one untimed warm-up round and then timed rounds of
the plan's CLI operations until ``seconds`` have passed, and writes per
round the time and exit code of every operation, the reference-loop
samples timed between them and, traced, the per-layer counters to the
plan's result file.  Outputs go to one ``--out`` file per
round and operation, checked by the parent after this process has ended,
so that ``peak_rss_mb`` covers the CLI's work and nothing of the checks.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """One BLAS/OpenMP thread; takes effect only before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


#: Iterations of the fixed pure-Python loop (about 1 ms) that gauges the machine's speed.
REFERENCE_LOOP_ITERATIONS = 10_000
#: The loop runs before an operation when this long has passed since it last ran, and once
#: at the end of every round, so its samples are spread through the round.
REFERENCE_LOOP_EVERY_S = 0.05
#: Reference loops a set-up probe times once it is ready.
PROBE_REFERENCE_LOOPS = 9


def import_cli(src: str):
    """Import ``lindbladmv.cli`` from the checkout's ``src`` and nowhere else."""
    sys.path.insert(0, src)
    from lindbladmv import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"lindbladmv imported from {cli.__file__}, not from {src}")
    return cli


def probe(plan: dict) -> None:
    import_cli(plan["src"])
    from lindbladmv import modelio

    files = plan["files"]
    for path in files["models"]:
        modelio.load_model(path)
    modelio.load_state(files["state"])
    modelio.load_observables(files["observables"])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    loops = sorted(reference_loop() for _ in range(PROBE_REFERENCE_LOOPS))
    sys.stdout.write(f"{loops[len(loops) // 2]!r}\n")


def reference_loop() -> float:
    """A fixed amount of interpreter work: its drift is the machine's, not the program's."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def run_round(cli, argvs: list, outdir: str, index: int) -> tuple[list, list, list]:
    times, codes, ref_loop = [], [], []
    last = -REFERENCE_LOOP_EVERY_S
    for k, argv in enumerate(argvs):
        if time.perf_counter() - last >= REFERENCE_LOOP_EVERY_S:
            ref_loop.append(reference_loop())
            last = time.perf_counter()
        argv = argv + ["--out", os.path.join(outdir, f"r{index}-{k}.txt")]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code if isinstance(exc.code, int) else 1
        times.append(time.perf_counter() - start)
        codes.append(code)
    ref_loop.append(reference_loop())
    return times, codes, ref_loop


def timed_rounds(plan: dict) -> None:
    cli = import_cli(plan["src"])
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rounds = []

    def one_round() -> None:
        if tracer is not None:
            tracer.reset()
        times, codes, ref_loop = run_round(cli, plan["argvs"], plan["outdir"], len(rounds))
        rounds.append({
            "times": times,
            "codes": codes,
            "ref_loop_s": ref_loop,
            "trace": tracer.snapshot() if tracer is not None else None,
        })

    one_round()  # round 0 warms caches and lazy set-up; it is checked, not timed
    deadline = time.perf_counter() + plan["seconds"]
    one_round()
    while time.perf_counter() < deadline:
        one_round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump({"rounds": rounds, "peak_rss_mb": peak_rss_mb}, handle)


def main(argv: list) -> int:
    pin_threads()
    probing = argv[:1] == ["--probe"]
    with open(argv[-1], encoding="utf-8") as handle:
        plan = json.load(handle)
    if probing:
        probe(plan)
    else:
        timed_rounds(plan)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
