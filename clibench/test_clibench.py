"""Tests of the benchmark itself: ``python3 -m pytest clibench``.

Tiny runs of every workload go through the real CLI; the check tests feed
outputs written from the references, then corrupt them one way at a time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import references  # noqa: E402
import workloads  # noqa: E402
from references import CheckError  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402

TINY = {"tls-sweep": 2, "dense-n16": 3, "action-n32": 4}


def run_benchmark(*args, cwd=None, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=170, cwd=cwd
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_completes(workload):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0.01",
                         "--trace", "0", "--size", str(TINY[workload]))
    result = last_json(proc)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] % len(workloads.build(workload, 3, TINY[workload]).ops) == 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["tls-sweep", "action-n32"])
def test_tiny_traced_run_reports_every_layer(workload):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0.01",
                         "--trace", "1", "--size", str(TINY[workload]))
    result = last_json(proc)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] is True and result["failed"] == 0
    assert set(metrics) == set(PER_LAYER)
    # names copied by "from .linalg import ..." are traced too
    assert metrics["linalg.expm_action.calls"] >= 1
    assert metrics["linalg.as_square.calls"] > 0
    assert metrics["scipy.linalg.expm.calls"] > 0
    assert metrics["model.validate_state.calls"] >= 1
    n = TINY[workload] if workload == "action-n32" else 2
    assert metrics["vectorized.superop_mb"] == pytest.approx(n**4 * 16 / 1e6)
    if workload == "tls-sweep":
        assert metrics["arnoldi.basis_size"] == 4
        assert metrics["linalg.hs_inner.calls"] > 0
        assert metrics["scipy.linalg.eig.calls"] > 0
    else:
        assert metrics["arnoldi.arnoldi_reduce.calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "tls-sweep", "--seed", "0", "--seconds", "1", "--trace", "0",
                         cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_file_names_the_metrics_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_op_geomean_weights_operations_alike():
    from run import geomean

    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([1.0] * 7 + [10.0]) == pytest.approx(10 ** (1 / 8))
    assert geomean([1.0, None]) is None


def test_same_seed_same_inputs():
    a, b = workloads.build("dense-n16", 5, 4), workloads.build("dense-n16", 5, 4)
    assert np.array_equal(a.state, b.state)
    assert np.array_equal(a.models[0].hamiltonian, b.models[0].hamiltonian)
    assert not np.array_equal(a.state, workloads.build("dense-n16", 6, 4).state)


def test_tls_grid_contains_the_ep_once():
    tls = workloads.build("tls-sweep", 0)
    assert len(tls.models) == 25
    assert sum(m.is_ep for m in tls.models) == 1


# --- references agree with each other -------------------------------------


def test_bloch_equations_match_the_lindblad_integration():
    model = workloads.tls_model(0.7, 1.3)
    ground = np.diag([0.0, 1.0]).astype(complex)
    times = np.linspace(0.0, 5.0, 21)
    rhos = references.lindblad_trajectory(model.hamiltonian, model.jumps, ground, times)
    spins = np.einsum("kij,tji->tk", np.array([workloads.SX, workloads.SY, workloads.SZ]), rhos)
    bloch = references.bloch_trajectory(0.7, 1.3, 1.0, [0.0, 0.0, -0.5], times)
    assert np.abs(spins - bloch).max() < 1e-10


def test_bloch_spectrum_matches_the_generator_matrix():
    model = workloads.tls_model(0.7, 1.3)
    exact = references.lindblad_spectrum(model.hamiltonian, model.jumps)
    assert references.max_matching_distance(exact, references.bloch_spectrum(0.7, 1.3, 1.0, False)) < 1e-12


def test_ep_is_a_triple_root():
    spectrum = references.bloch_spectrum(workloads.EP_DETUNING, workloads.EP_DRIVE, 1.0, True)
    assert np.allclose(spectrum[1:], -2.0 / 3.0)
    with pytest.raises(CheckError):
        references.bloch_spectrum(workloads.EP_DETUNING, 1.1 * workloads.EP_DRIVE, 1.0, True)


def test_trace_identity_is_the_eigenvalue_sum():
    model = workloads.build("dense-n16", 2, 4).models[0]
    spectrum = references.lindblad_spectrum(model.hamiltonian, model.jumps)
    assert spectrum.sum() == pytest.approx(references.trace_identity(model.jumps, 4), abs=1e-10)


# --- every check rejects a corrupted output --------------------------------


def csv_text(times, labels, values) -> str:
    lines = ["t," + ",".join(f"{lab}_re,{lab}_im" for lab in labels)]
    for t, row in zip(times, values):
        lines.append(",".join([repr(float(t))] + [f"{float(z.real)!r},{float(z.imag)!r}" for z in row]))
    return "\n".join(lines) + "\n"


def spectrum_text(values) -> str:
    return "".join(f"{float(z.real)!r},{float(z.imag)!r}\n" for z in values)


def degeneracy_text(sizes_centers, defective: bool) -> str:
    lines = [f"cluster size={s} center=({c.real:.6g},{c.imag:.6g}) diameter=0.000e+00"
             for s, c in sizes_centers]
    return "\n".join(lines + ["eigenvector_condition: 1.0e+00", f"defective: {'yes' if defective else 'no'}"]) + "\n"


@pytest.fixture(scope="module")
def tls():
    workload = workloads.build("tls-sweep", 1, 2)
    refs = references.expected_values(workload)
    ep = next(k for k, m in enumerate(workload.models) if m.is_ep)
    other = next(k for k, m in enumerate(workload.models) if not m.is_ep)
    return refs, refs.points[ep], refs.points[other]


@pytest.fixture(scope="module")
def dense():
    refs = references.expected_values(workloads.build("dense-n16", 1, 3))
    return refs, refs.points[0]


def test_valid_outputs_pass(tls, dense):
    for refs, point in ((tls[0], tls[1]), (tls[0], tls[2]), dense):
        references.check_trajectory(csv_text(refs.times, refs.labels, point.trajectory), refs, point)
        references.check_spectrum(spectrum_text(point.spectrum), refs, point)
    refs, ep, other = tls
    references.check_degeneracy(degeneracy_text([(1, 0j), (3, -2 / 3 + 0j)], True), refs, ep)
    references.check_degeneracy(degeneracy_text([(1, z) for z in other.spectrum], False), refs, other)


@pytest.mark.parametrize("case", ["tls", "dense"])
def test_trajectory_with_trace_off_by_1e6_is_rejected(case, tls, dense):
    refs, point = (tls[0], tls[2]) if case == "tls" else dense
    values = point.trajectory.copy()
    if refs.readout == "units":
        values[7, refs.labels.index("e0_0")] += 1e-6
    else:
        values[7, refs.labels.index("I")] += 1e-6
    with pytest.raises(CheckError, match="trace"):
        references.check_trajectory(csv_text(refs.times, refs.labels, values), refs, point)


def test_non_hermitian_state_is_rejected(dense):
    refs, point = dense
    values = point.trajectory.copy()
    values[3, refs.labels.index("e0_1")] += 1e-6
    with pytest.raises(CheckError, match="Hermitian"):
        references.check_trajectory(csv_text(refs.times, refs.labels, values), refs, point)


def test_trajectory_off_the_reference_is_rejected(tls):
    refs, _, point = tls
    values = point.trajectory.copy()
    values[20, refs.labels.index("Sz")] += 1e-6
    with pytest.raises(CheckError, match="reference"):
        references.check_trajectory(csv_text(refs.times, refs.labels, values), refs, point)


@pytest.mark.parametrize("case", ["tls", "dense"])
@pytest.mark.parametrize("corruption", ["moved", "positive", "unpaired", "missing"])
def test_corrupted_spectrum_is_rejected(case, corruption, tls, dense):
    refs, point = (tls[0], tls[2]) if case == "tls" else dense
    values = point.spectrum.copy()
    k = int(np.argmin(values.real))  # never the zero eigenvalue
    if corruption == "moved":
        values[k] += 1e-3
    elif corruption == "positive":
        values[k] = -values[k].real + 1j * values[k].imag
    elif corruption == "unpaired":
        values[k] += 1e-3j
    else:
        values = values[1:]
    with pytest.raises(CheckError):
        references.check_spectrum(spectrum_text(values), refs, point)


def test_second_zero_eigenvalue_is_rejected(tls):
    refs, _, point = tls
    values = point.spectrum.copy()
    values[int(np.argmin(values.real))] = 0.0
    with pytest.raises(CheckError, match="zero"):
        references.check_spectrum(spectrum_text(values), refs, point)


def test_degeneracy_without_the_ep_cluster_is_rejected(tls):
    refs, ep, _ = tls
    singles = [(1, 0j), (1, -0.66 + 0j), (1, -0.67 + 0j), (1, -0.68 + 0j)]
    with pytest.raises(CheckError):
        references.check_degeneracy(degeneracy_text(singles, True), refs, ep)
    with pytest.raises(CheckError, match="defective"):
        references.check_degeneracy(degeneracy_text([(1, 0j), (3, -2 / 3 + 0j)], False), refs, ep)
    with pytest.raises(CheckError, match="sum"):
        references.check_degeneracy(degeneracy_text([(1, 0j), (2, -2 / 3 + 0j)], True), refs, ep)


def test_spurious_defective_verdict_is_rejected(tls):
    refs, _, other = tls
    with pytest.raises(CheckError, match="defective"):
        references.check_degeneracy(degeneracy_text([(1, z) for z in other.spectrum], True), refs, other)
