"""Run the benchmark in two sets of ten seeds and report how steady each metric is.

    python3 clibench/steadiness.py --first-seed 50

Set A runs seeds first-seed .. +9, then set B seeds +10 .. +19, each on every
workload of ``BENCHMARK.json`` untraced with its ``run_seconds``, workloads
interleaved within a set so that drift of the machine hits them alike.
For each metric and set it reports the median, the quartiles of
``statistics.quantiles(n=4)`` and the spread (q3 - q1) / median, and how far
set B's median moved from set A's.  The gated figures come with their
plain-seconds counterparts and the fixed reference loop every round times
(``ref_loop_s``): when the reference loop moves with the plain timings, the
machine drifted.  Prints Markdown tables and writes every run to
``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
SEEDS_PER_SET = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True, timeout=900, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-2].removeprefix("summary "))
    return {"result": json.loads(lines[-1]), "summary": summary, "wall_s": wall}


def series(runs: list) -> dict:
    """Per metric, its value in each run: the gated ones first, then their plain counterparts."""
    out = {metric: [r["result"]["metrics"][metric]["value"] for r in runs]
           for metric in runs[0]["result"]["metrics"]}
    out["setup, plain s"] = [statistics.median(r["summary"]["setup_samples_s"]) for r in runs]
    out["op_geomean, plain s"] = [r["summary"]["op_geomean_s"] for r in runs]
    out["ref_loop_s"] = [r["summary"]["ref_loop_s"] for r in runs]
    out["failed share"] = [r["result"]["failed"] / r["result"]["attempted"] for r in runs]
    out["wall_s"] = [r["wall_s"] for r in runs]
    return out


def describe(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = {}
    for label, first in (("A", args.first_seed), ("B", args.first_seed + SEEDS_PER_SET)):
        sets[label] = {name: [] for name in names}
        for seed in range(first, first + SEEDS_PER_SET):
            for name in names:
                last = one_run(name, seed, seconds)
                sets[label][name].append(last)
                sys.stderr.write(f"set {label} {name} seed {seed}: {last['wall_s']:.1f} s, "
                                 f"{json.dumps(last['result'])[:300]}\n")

    print("| workload | metric | A median | A q1 | A q3 | A spread | B median | B spread | B / A - 1 |")
    print("|---|---|---|---|---|---|---|---|---|")
    table = {}
    for name in names:
        a, b = series(sets["A"][name]), series(sets["B"][name])
        for metric in a:
            da, db = describe(a[metric]), describe(b[metric])
            moved = db["median"] / da["median"] - 1 if da["median"] else 0.0
            table[f"{name} {metric}"] = {"A": da, "B": db, "moved": moved}
            print(f"| `{name}` | {metric} | {da['median']:.5g} | {da['q1']:.5g} | {da['q3']:.5g} | "
                  f"{da['spread']:.3f} | {db['median']:.5g} | {db['spread']:.3f} | {moved:+.3f} |")

    print("\n| workload | operation | median s | median refloop | refloop spread |")
    print("|---|---|---|---|---|")
    for name in names:
        runs = sets["A"][name] + sets["B"][name]
        for op in runs[0]["summary"]["op_s"]:
            plain = statistics.median(r["summary"]["op_s"][op] for r in runs)
            loops = describe([r["summary"]["op_refloop"][op] for r in runs])
            print(f"| `{name}` | `{op}` | {plain:.4g} | {loops['median']:.4g} | {loops['spread']:.3f} |")

    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"steadiness-{int(time.time())}.json"
    out.write_text(json.dumps({"first_seed": args.first_seed, "table": table, "sets": sets}, indent=1))
    print(f"\nruns written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
