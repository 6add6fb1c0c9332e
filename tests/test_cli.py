import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from lindbladmv.cli import build_parser, main
from lindbladmv.model import LindbladModel, random_density, random_model
from lindbladmv.modelio import save_model, save_observables, save_state
from lindbladmv.tls import (
    BASIS_LABELS,
    EXCITED,
    GROUND,
    IDENTITY,
    SX,
    SY,
    SZ,
    S_MINUS,
    TLSParams,
    build_tls,
)

from conftest import ep_params, json_rows, multiset_close, tls_superop_golden


@pytest.fixture
def tls_files(tmp_path):
    """Model/state/observable files for a generic driven-decaying TLS."""
    delta, eps, gamma = 0.7, 1.3, 0.9
    paths = {
        "model": tmp_path / "model.json",
        "state": tmp_path / "state.json",
        "obs": tmp_path / "obs.json",
        "basis": tmp_path / "basis.json",
    }
    save_model(paths["model"], build_tls(TLSParams(delta, eps, gamma)), BASIS_LABELS)
    save_state(paths["state"], GROUND, BASIS_LABELS)
    save_observables(paths["obs"], [("Sz", SZ), ("I", IDENTITY)])
    save_observables(paths["basis"], [("Sx", SX), ("Sy", SY), ("Sz", SZ), ("I", IDENTITY)])
    return paths, (delta, eps, gamma)


def read_spectrum(text):
    return np.array(
        [complex(float(a), float(b)) for a, b in (line.split(",") for line in text.split())]
    )


def test_make_tls_then_superop_golden(tmp_path, capsys):
    model_path = tmp_path / "tls.json"
    assert main(
        [
            "make-tls",
            "--detuning", "0.7",
            "--drive", "1.3",
            "--decay", "0.9",
            "--out", str(model_path),
        ]
    ) == 0
    assert main(["superop", str(model_path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "# vec convention: column-stacking"
    assert lines[1] == "row,col,re,im"
    matrix = np.zeros((4, 4), dtype=complex)
    for line in lines[2:]:
        i, j, re, im = line.split(",")
        matrix[int(i), int(j)] = complex(float(re), float(im))
    assert len(lines) == 2 + 16
    assert np.allclose(matrix, tls_superop_golden(0.7, 1.3, 0.9), atol=1e-15)


def test_spectrum_methods_agree(tls_files, capsys):
    paths, _ = tls_files
    values = {}
    for method, extra in (
        ("vec", []),
        ("arnoldi", ["--state", str(paths["state"]), "--krylov-dim", "3"]),
        ("heisenberg", ["--basis", str(paths["basis"])]),
    ):
        assert main(["spectrum", str(paths["model"]), "--method", method, *extra]) == 0
        values[method] = read_spectrum(capsys.readouterr().out)
    assert multiset_close(values["vec"], values["arnoldi"], 1e-8)
    assert multiset_close(values["vec"], values["heisenberg"], 1e-8)


def test_spectrum_sorted_output(tls_files, capsys):
    paths, _ = tls_files
    assert main(["spectrum", str(paths["model"])]) == 0
    values = read_spectrum(capsys.readouterr().out)
    keys = [(z.real, z.imag) for z in values]
    assert keys == sorted(keys)


def test_spectrum_method_agreement_over_grid(tmp_path, capsys):
    # every method prints the same multiset across a detuning/drive sweep
    gamma = 1.0
    state_path = tmp_path / "state.json"
    basis_path = tmp_path / "basis.json"
    save_state(state_path, GROUND, BASIS_LABELS)
    save_observables(basis_path, [("Sx", SX), ("Sy", SY), ("Sz", SZ), ("I", IDENTITY)])
    grid = np.linspace(0.4, 2.0, 5) * gamma
    for delta in grid:
        for eps in grid:
            model_path = tmp_path / "model.json"
            save_model(model_path, build_tls(TLSParams(delta, eps, gamma)), BASIS_LABELS)
            values = {}
            for method, extra in (
                ("vec", []),
                ("arnoldi", ["--state", str(state_path), "--krylov-dim", "3"]),
                ("heisenberg", ["--basis", str(basis_path)]),
            ):
                assert main(["spectrum", str(model_path), "--method", method, *extra]) == 0
                values[method] = read_spectrum(capsys.readouterr().out)
            assert multiset_close(values["vec"], values["arnoldi"], 1e-8)
            assert multiset_close(values["vec"], values["heisenberg"], 1e-8)


def test_spectrum_at_exceptional_point(tmp_path, capsys):
    delta, eps, gamma = ep_params()
    model_path = tmp_path / "ep.json"
    save_model(model_path, build_tls(TLSParams(delta, eps, gamma)), BASIS_LABELS)
    assert main(["spectrum", str(model_path), "--method", "vec"]) == 0
    values = read_spectrum(capsys.readouterr().out)
    near_deg = [z for z in values if abs(z - (-2.0 / 3.0)) <= 1e-4]
    near_zero = [z for z in values if abs(z) <= 1e-8]
    assert len(near_deg) == 3
    assert len(near_zero) == 1


def test_spectrum_arnoldi_requires_state(tls_files, capsys):
    paths, _ = tls_files
    assert main(["spectrum", str(paths["model"]), "--method", "arnoldi"]) == 2
    assert "--state" in capsys.readouterr().err


@pytest.mark.parametrize(
    "matrix",
    [np.array([[0.5, 0.5], [0.0, 0.5]]), np.diag([1.0, 1.0]), np.diag([1.5, -0.5])],
    ids=["non-hermitian", "trace-2", "negative"],
)
def test_spectrum_arnoldi_validates_state(tls_files, tmp_path, capsys, matrix):
    paths, _ = tls_files
    state = tmp_path / "bad_state.json"
    save_state(state, matrix)
    assert main(["spectrum", str(paths["model"]), "--method", "arnoldi", "--state", str(state)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["vec", "arnoldi", "heisenberg"])
def test_spectrum_prints_exact_conjugate_pairs(tmp_path, capsys, rng, method):
    model_path, state_path = tmp_path / "model.json", tmp_path / "state.json"
    basis_path = tmp_path / "basis.json"
    save_model(model_path, random_model(rng, 3, n_jumps=2))
    rho = random_density(rng, 3).matrix
    save_state(state_path, 0.5 * (rho + rho.conj().T))
    units = np.eye(9).reshape(9, 3, 3)  # closed under the adjoint, and under every generator
    save_observables(basis_path, [(f"e{k}", unit) for k, unit in enumerate(units)])
    options = {
        "vec": [],
        "arnoldi": ["--state", str(state_path)],
        "heisenberg": ["--basis", str(basis_path)],
    }
    assert main(["spectrum", str(model_path), "--method", method] + options[method]) == 0
    values = read_spectrum(capsys.readouterr().out)
    assert len(values) == 9
    assert np.array_equal(np.sort_complex(values), np.sort_complex(values.conj()))
    # the stationary eigenvalue is real, so an odd count of them is exactly real
    assert np.sum(values.imag == 0.0) % 2 == 1


def test_not_closed_basis_is_numerical_failure(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    basis_path = tmp_path / "basis.json"
    save_model(model_path, build_tls(TLSParams(0.9, 0.4, 0.5)), BASIS_LABELS)
    save_observables(basis_path, [("Sx", SX)])
    code = main(["spectrum", str(model_path), "--method", "heisenberg", "--basis", str(basis_path)])
    assert code == 3
    assert "span" in capsys.readouterr().err


def test_heisenberg_spectrum_of_a_set_without_its_adjoints(tmp_path, capsys):
    # {S-} alone closes on an undriven two-level model: L^dag(S-) = (-gamma/2 - i delta) S-
    delta, gamma = 0.3, 0.8
    model_path, basis_path = tmp_path / "model.json", tmp_path / "basis.json"
    save_model(model_path, build_tls(TLSParams(delta, 0.0, gamma)), BASIS_LABELS)
    save_observables(basis_path, [("Sm", S_MINUS)])
    assert main(["spectrum", str(model_path), "--method", "heisenberg", "--basis", str(basis_path)]) == 0
    values = read_spectrum(capsys.readouterr().out)
    assert np.allclose(values, [-gamma / 2 + 1j * delta], atol=1e-14)


def test_malformed_model_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2}')
    assert main(["superop", str(bad)]) == 2
    assert "hamiltonian" in capsys.readouterr().err


def test_propagate_analytic_decay(tmp_path, capsys):
    gamma = 0.8
    model_path = tmp_path / "m.json"
    state_path = tmp_path / "s.json"
    obs_path = tmp_path / "o.json"
    save_model(model_path, build_tls(TLSParams(0.0, 0.0, gamma)), BASIS_LABELS)
    save_state(state_path, EXCITED, BASIS_LABELS)
    save_observables(obs_path, [("Sz", SZ), ("I", IDENTITY)])
    assert main(
        [
            "propagate", str(model_path),
            "--state", str(state_path),
            "--observables", str(obs_path),
            "--t0", "0", "--t1", "5", "--steps", "6",
        ]
    ) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 6
    for row in rows:
        t = float(row["t"])
        assert float(row["Sz_re"]) == pytest.approx(np.exp(-gamma * t) - 0.5, abs=1e-9)
        assert float(row["Sz_im"]) == pytest.approx(0.0, abs=1e-12)
        assert float(row["I_re"]) == pytest.approx(1.0, abs=1e-10)


def test_propagate_single_initial_row(tls_files, capsys):
    paths, _ = tls_files
    assert main(
        [
            "propagate", str(paths["model"]),
            "--state", str(paths["state"]),
            "--observables", str(paths["obs"]),
            "--t0", "0", "--t1", "0", "--steps", "1",
        ]
    ) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[0]["Sz_re"]) == pytest.approx(-0.5, abs=1e-12)


def test_propagate_single_step_needs_t1_equal_to_t0(tls_files, capsys):
    paths, _ = tls_files
    argv = ["propagate", str(paths["model"]), "--state", str(paths["state"]),
            "--observables", str(paths["obs"]), "--t0", "0", "--t1", "5", "--steps", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --steps 1 ")
    assert captured.out == ""


def test_heisenberg_identity_reads_exactly_one(tmp_path, capsys):
    model, state, basis = (tmp_path / name for name in ("m.json", "s.json", "b.json"))
    assert main(["make-tls", "--detuning", "1.0", "--drive", "2.0", "--decay", "1.0",
                 "--out", str(model)]) == 0
    save_state(state, GROUND, BASIS_LABELS)
    save_observables(basis, [("Sx", SX), ("Sy", SY), ("Sz", SZ), ("I", IDENTITY)])
    assert main(["propagate", str(model), "--state", str(state), "--observables", str(basis),
                 "--t0", "0", "--t1", "5", "--steps", "21", "--method", "heisenberg"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 21
    assert {row["I_re"] for row in rows} == {"1.0"}


def test_propagate_methods_agree(tls_files, capsys):
    paths, _ = tls_files
    columns = {}
    for method in ("vec", "expm-action", "arnoldi", "heisenberg"):
        obs = paths["basis"] if method == "heisenberg" else paths["obs"]
        assert main(
            [
                "propagate", str(paths["model"]),
                "--state", str(paths["state"]),
                "--observables", str(obs),
                "--t0", "0", "--t1", "3", "--steps", "7",
                "--method", method,
            ]
        ) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        columns[method] = np.array([[float(r["t"]), float(r["Sz_re"]), float(r["Sz_im"])] for r in rows])
    for method in ("expm-action", "arnoldi", "heisenberg"):
        assert np.abs(columns[method] - columns["vec"]).max() <= 1e-8


@pytest.mark.parametrize("method", ["vec", "arnoldi", "heisenberg"])
def test_uniform_grid_takes_one_exponential(tmp_path, capsys, monkeypatch, method):
    rng = np.random.default_rng(5)
    n = 3
    paths = [tmp_path / name for name in ("model.json", "state.json", "obs.json")]
    save_model(paths[0], random_model(rng, n, n_jumps=2))
    save_state(paths[1], random_density(rng, n).matrix)
    units = np.eye(n * n).reshape(n * n, n, n)  # closed under every adjoint generator
    save_observables(paths[2], [(f"e{k}", unit) for k, unit in enumerate(units)])
    calls, original = [], scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or original(a))
    argv = ["propagate", str(paths[0]), "--state", str(paths[1]), "--observables",
            str(paths[2]), "--t0", "0", "--t1", "5", "--steps", "21", "--method", method]
    assert main(argv) == 0
    assert len(calls) == 1
    assert len(capsys.readouterr().out.strip().splitlines()) == 22


def test_expm_action_grid_reuses_krylov_bases(tmp_path, capsys, monkeypatch):
    import lindbladmv.linalg as linalg

    rng = np.random.default_rng(7)
    n = 24
    raw = random_model(rng, n, n_jumps=2)

    def scaled(a):  # Frobenius norm sqrt(n), as in the benchmark's models
        return a * (np.sqrt(n) / np.linalg.norm(a))

    model = LindbladModel(scaled(raw.hamiltonian), tuple((r, scaled(op)) for r, op in raw.jumps))
    paths = [tmp_path / name for name in ("model.json", "state.json", "obs.json")]
    save_model(paths[0], model)
    save_state(paths[1], random_density(rng, n).matrix)
    save_observables(paths[2], [("I", np.eye(n))])
    actions, runs = [], []
    expm_action, arnoldi_iteration = linalg.expm_action, linalg.arnoldi_iteration
    monkeypatch.setattr(linalg, "expm_action", lambda *a: actions.append(a) or expm_action(*a))
    monkeypatch.setattr(linalg, "arnoldi_iteration", lambda *a: runs.append(a) or arnoldi_iteration(*a))
    argv = ["propagate", str(paths[0]), "--state", str(paths[1]), "--observables",
            str(paths[2]), "--t0", "0", "--t1", "5", "--steps", "21", "--method", "expm-action"]
    assert main(argv) == 0
    assert len(actions) == 1
    assert len(runs) <= 4  # one basis per grid interval would be 20
    assert len(capsys.readouterr().out.strip().splitlines()) == 22


def test_degeneracy_report(tmp_path, capsys):
    delta, eps, gamma = ep_params()
    model_path = tmp_path / "ep.json"
    save_model(model_path, build_tls(TLSParams(delta, eps, gamma)), BASIS_LABELS)
    assert main(["degeneracy", str(model_path), "--cluster-tol", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "size=3" in out
    assert "defective: yes" in out

    generic_path = tmp_path / "generic.json"
    save_model(generic_path, build_tls(TLSParams(0.9, 1.7, 0.8)), BASIS_LABELS)
    assert main(["degeneracy", str(generic_path), "--cluster-tol", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert out.count("size=1") == 4
    assert "defective: no" in out

    zero_path = tmp_path / "zero.json"
    save_model(zero_path, build_tls(TLSParams(0.0, 0.0, 0.0)), BASIS_LABELS)
    assert main(["degeneracy", str(zero_path), "--cluster-tol", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert "size=4" in out
    assert "center=(0,0)" in out or "center=(-0,0)" in out or "center=(0,-0)" in out
    assert "defective: no" in out


@pytest.mark.parametrize("cluster_tol", ["nan", "inf"])
def test_degeneracy_rejects_non_finite_cluster_tol(tls_files, capsys, cluster_tol):
    paths, _ = tls_files
    assert main(["degeneracy", str(paths["model"]), "--cluster-tol", cluster_tol]) == 2
    assert "cluster_tol" in capsys.readouterr().err


def test_propagate_rejects_comma_label(tls_files, tmp_path, capsys):
    paths, _ = tls_files
    obs = tmp_path / "comma.json"
    obs.write_text(json.dumps({"dim": 2, "observables": [{"label": "a,b", "matrix": json_rows(SZ)}]}))
    argv = ["propagate", str(paths["model"]), "--state", str(paths["state"]),
            "--observables", str(obs), "--t1", "1", "--steps", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "observables[0].label" in err


def test_bench_csv_and_slopes(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    assert main(
        [
            "bench",
            "--dims", "2,3",
            "--methods", "full-expm,expm-action",
            "--seed", "7",
            "--repeats", "1",
            "--out", str(out_path),
        ]
    ) == 0
    rows = list(csv.DictReader(out_path.open()))
    assert {(r["n"], r["method"]) for r in rows} == {
        ("2", "full-expm"), ("2", "expm-action"), ("3", "full-expm"), ("3", "expm-action")
    }
    assert all(r["status"] == "ok" for r in rows)
    assert all(float(r["result_error"]) <= 1e-6 for r in rows)
    printed = capsys.readouterr().out
    assert "slope full-expm" in printed
    assert "slope expm-action" in printed
    assert "slope ordering:" in printed


@pytest.mark.parametrize(
    "options",
    [
        ["--dims", "2,x"],
        ["--dims", "2.5"],
        ["--dims", "2", "--seed", "-1"],
        ["--dims", "2", "--repeats", "0"],
        ["--dims", "2", "--timeout", "nan"],
        ["--dims", "2", "--timeout", "-1"],
        ["--dims", ","],
        ["--dims", "2", "--methods", ","],
        ["--dims", "3,3"],
        ["--dims", "2,3", "--methods", "full-expm,full-expm"],
    ],
)
def test_bench_rejects_bad_options(tmp_path, capsys, options):
    out_path = tmp_path / "bench.csv"
    argv = ["bench", "--methods", "full-expm", "--repeats", "1", "--out", str(out_path)]
    assert main(argv + options) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--method", "vec"],
        ["--method", "expm-action"],
        ["--method", "heisenberg"],
        ["spectrum"],
        ["spectrum", "--method", "heisenberg"],
    ],
)
def test_krylov_dim_only_with_arnoldi(tls_files, capsys, argv):
    paths, _ = tls_files
    if argv[0] == "spectrum":
        argv = argv + [str(paths["model"]), "--basis", str(paths["basis"])]
    else:
        argv = ["propagate", str(paths["model"]), "--state", str(paths["state"]),
                "--observables", str(paths["obs"]), "--t1", "1", "--steps", "3"] + argv
    assert main(argv + ["--krylov-dim", "2"]) == 2
    captured = capsys.readouterr()
    assert "--method arnoldi" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "method, option, needs",
    [
        ("vec", "state", "--state needs --method arnoldi"),
        ("heisenberg", "state", "--state needs --method arnoldi"),
        ("vec", "basis", "--basis needs --method heisenberg"),
        ("arnoldi", "basis", "--basis needs --method heisenberg"),
    ],
)
def test_spectrum_file_options_only_with_their_method(tls_files, capsys, method, option, needs):
    paths, _ = tls_files
    argv = ["spectrum", str(paths["model"]), "--method", method, f"--{option}", str(paths[option])]
    if method == "arnoldi":
        argv += ["--state", str(paths["state"])]
    elif method == "heisenberg":
        argv += ["--basis", str(paths["basis"])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert needs in captured.err and captured.out == ""


def test_tables_print_the_repr_of_every_cell(tls_files, capsys, monkeypatch):
    import lindbladmv.cli as cli

    paths, _ = tls_files
    rows = np.array([[complex(-0.0, -0.0), -0.25 + 1e-17j], [np.pi + 2.0j, 3.0 - 0.125j]])
    monkeypatch.setattr(cli, "_trajectory_rows", lambda *a: (["a", "b"], rows))
    argv = ["propagate", str(paths["model"]), "--state", str(paths["state"]),
            "--observables", str(paths["obs"]), "--t0", "0.5", "--t1", "1", "--steps", "2"]
    assert main(argv) == 0
    expected = ["t,a_re,a_im,b_re,b_im"]
    for t, row in zip([0.5, 1.0], rows):
        cells = [repr(float(t))]
        for z in row:
            cells += [repr(float(z.real)), repr(float(z.imag))]
        expected.append(",".join(cells))
    assert capsys.readouterr().out == "\n".join(expected) + "\n"
    assert "-0.0,-0.0" in expected[1]

    values = rows.reshape(-1)
    monkeypatch.setattr(cli, "eigvals", lambda m: values)
    assert main(["spectrum", str(paths["model"])]) == 0
    ordered = sorted(values, key=lambda z: (z.real, z.imag))
    expected = [f"{float(z.real)!r},{float(z.imag)!r}" for z in ordered]
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_calls_in_one_process_do_not_share_options(tls_files, tmp_path):
    paths, _ = tls_files
    model, state = str(paths["model"]), str(paths["state"])
    propagate = ["propagate", model, "--state", state, "--observables", str(paths["obs"]),
                 "--t1", "2", "--steps", "5", "--method", "arnoldi"]
    spectrum = ["spectrum", model, "--state", state]
    pairs = [
        (propagate + ["--krylov-dim", "2"], propagate),
        (spectrum + ["--method", "arnoldi", "--krylov-dim", "2"], spectrum + ["--method", "arnoldi"]),
        (spectrum + ["--method", "arnoldi"], ["spectrum", model]),
    ]

    def run(argv):
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 0
        return out.read_text()

    for first, second in pairs:
        build_parser.cache_clear()
        alone = run(second)
        build_parser.cache_clear()
        first_alone = run(first)
        assert run(second) == alone
        assert run(first) == first_alone
        assert first_alone != alone


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "lindbladmv.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "spectrum" in proc.stdout
    assert "propagate" in proc.stdout
