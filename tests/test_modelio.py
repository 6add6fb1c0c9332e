import gc
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lindbladmv import modelio
from lindbladmv.cli import main
from lindbladmv.errors import ModelFormatError, ValidationError
from lindbladmv.modelio import (
    load_model,
    load_observables,
    load_state,
    save_model,
    save_observables,
    save_state,
)
from lindbladmv.model import random_model, validate_state
from lindbladmv.tls import BASIS_LABELS, GROUND, SX, SZ, TLSParams, build_tls

from conftest import json_rows


def test_model_round_trip_bit_exact(tmp_path, rng):
    model = random_model(rng, 3, n_jumps=2)
    path = tmp_path / "model.json"
    save_model(path, model)
    back = load_model(path)
    assert np.array_equal(back.hamiltonian, model.hamiltonian)
    assert len(back.jumps) == len(model.jumps)
    for (r1, a1), (r2, a2) in zip(back.jumps, model.jumps):
        assert r1 == r2
        assert np.array_equal(a1, a2)


def test_tls_model_file(tmp_path):
    model = build_tls(TLSParams(0.3, 0.7, 1.0))
    path = tmp_path / "tls.json"
    save_model(path, model, basis_labels=BASIS_LABELS)
    data = json.loads(path.read_text())
    assert data["dim"] == 2
    assert data["basis_labels"] == ["e", "g"]
    assert data["jumps"][0]["rate"] == 1.0
    back = load_model(path)
    assert np.array_equal(back.hamiltonian, model.hamiltonian)


def test_missing_rate(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                "jumps": [{"matrix": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]}],
            }
        )
    )
    with pytest.raises(ModelFormatError, match="rate"):
        load_model(path)


def test_dim_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}))
    with pytest.raises(ModelFormatError, match="3 rows"):
        load_model(path)


def test_non_hermitian_hamiltonian_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"dim": 2, "hamiltonian": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]})
    )
    with pytest.raises(ModelFormatError, match="Hermitian"):
        load_model(path)


def test_bad_complex_pair(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "hamiltonian": [[[0]]]}))
    with pytest.raises(ModelFormatError, match=r"\[re, im\]"):
        load_model(path)


def test_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all{")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model(path)


def test_missing_file(tmp_path):
    with pytest.raises(ModelFormatError, match="cannot read"):
        load_model(tmp_path / "missing.json")


def test_state_round_trip(tmp_path):
    path = tmp_path / "state.json"
    save_state(path, GROUND, basis_labels=BASIS_LABELS)
    assert np.array_equal(load_state(path), GROUND)


@pytest.mark.parametrize(
    "matrix",
    [np.array(1.0), np.ones((2, 3)), np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones((2, 2, 2)),
     np.zeros((0, 0)), np.array([[np.inf, 0.0], [0.0, 1.0]]), [[0.5, 0.0], [0.0]], "ab",
     [["1", "0"], ["0", "1"]], np.eye(2, dtype=bool)],
)
def test_save_state_rejects_what_load_rejects(tmp_path, matrix):
    path = tmp_path / "state.json"
    with pytest.raises(ValidationError, match="finite square 2-D matrix"):
        save_state(path, matrix)
    assert not path.exists()


def test_state_requires_matrix(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 2}))
    with pytest.raises(ModelFormatError, match="matrix"):
        load_state(path)


def test_observables_round_trip(tmp_path):
    path = tmp_path / "obs.json"
    save_observables(path, [("Sz", SZ), ("Sx", SX)])
    back = load_observables(path)
    assert [label for label, _ in back] == ["Sz", "Sx"]
    assert np.array_equal(back[0][1], SZ)
    assert np.array_equal(back[1][1], SX)


def test_writers_take_a_validated_state(tmp_path):
    state = validate_state(GROUND)
    save_state(tmp_path / "state.json", state)
    save_observables(tmp_path / "obs.json", [("rho", state), ("Sz", SZ)])
    assert np.array_equal(load_state(tmp_path / "state.json"), GROUND)
    assert np.array_equal(load_observables(tmp_path / "obs.json")[0][1], GROUND)


def test_observables_empty_rejected(tmp_path):
    path = tmp_path / "obs.json"
    path.write_text(json.dumps({"dim": 2, "observables": []}))
    with pytest.raises(ModelFormatError, match="empty"):
        load_observables(path)


@pytest.mark.parametrize("label", ["a,b", 'say "x"', "a\rb", "a\nb"])
def test_observable_label_must_fit_a_csv_header(tmp_path, label):
    path = tmp_path / "obs.json"
    items = [{"label": "Sz", "matrix": json_rows(SZ)}, {"label": label, "matrix": json_rows(SX)}]
    path.write_text(json.dumps({"dim": 2, "observables": items}))
    with pytest.raises(ModelFormatError, match=r"observables\[1\]\.label"):
        load_observables(path)


@pytest.mark.parametrize(
    "items, where",
    [
        ([], "observables list is empty"),
        ([("Sz", SZ), ("a,b", SX)], r"observables\[1\]\.label"),
        ([("Sz", SZ), ('say "x"', SX)], r"observables\[1\]\.label"),
        ([("a\nb", SZ)], r"observables\[0\]\.label"),
        ([("Sz", SZ), ("big", np.eye(3))], r"observables\[1\] must be a finite 2 x 2"),
        ([("Sz", SZ), ("nan", SX * np.nan)], r"observables\[1\] must be a finite 2 x 2"),
        ([("v", np.ones(2))], r"observables\[0\] must be a finite 2 x 2"),
        ([("Sz", SZ), ("ragged", [[0.5, 0.0], [0.0]])], r"observables\[1\] must be a finite 2 x 2"),
        ([("ragged", [[0.5, 0.0], [0.0]])], r"observables\[0\] must be a finite square matrix"),
        ([("text", "ab")], r"observables\[0\] must be a finite square matrix"),
    ],
)
def test_save_observables_rejects_what_load_rejects(tmp_path, items, where):
    path = tmp_path / "obs.json"
    with pytest.raises(ValidationError, match=where):
        save_observables(path, items)
    assert not path.exists()


def test_basis_labels_length_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "basis_labels": ["only-one"],
                "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            }
        )
    )
    with pytest.raises(ModelFormatError, match="basis_labels"):
        load_model(path)


ZERO_2 = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
LOWERING_2 = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]
HUGE_INT = 10**400

# (model file text, field the error must name); the first seven each crashed with a
# traceback before, the last four are the structural checks of the file
MALFORMED_MODELS = {
    "huge-entry": (
        json.dumps({"dim": 2, "hamiltonian": [[[HUGE_INT, 0], [0, 0]], [[0, 0], [0, 0]]]}),
        "hamiltonian",
    ),
    "huge-rate": (
        json.dumps({"dim": 2, "hamiltonian": ZERO_2, "jumps": [{"rate": HUGE_INT, "matrix": LOWERING_2}]}),
        "jumps[0].rate",
    ),
    "nan-rate": (
        json.dumps({"dim": 2, "hamiltonian": ZERO_2, "jumps": [{"rate": float("nan"), "matrix": LOWERING_2}]}),
        "jumps[0].rate",
    ),
    "bool-dim": (json.dumps({"dim": True, "hamiltonian": [[[0, 0]]]}), "'dim'"),
    "bool-rate": (
        json.dumps({"dim": 2, "hamiltonian": ZERO_2, "jumps": [{"rate": True, "matrix": LOWERING_2}]}),
        "jumps[0].rate",
    ),
    "int-jumps": (json.dumps({"dim": 2, "hamiltonian": ZERO_2, "jumps": 5}), "'jumps'"),
    "long-int": ('{"dim": 1, "hamiltonian": [[[' + "1" * 5000 + ", 0]]]}", ""),
    "top-level-list": ("[]", "top level must be an object"),
    "no-dim": (json.dumps({"hamiltonian": ZERO_2}), "missing 'dim'"),
    "jump-not-object": (
        json.dumps({"dim": 2, "hamiltonian": ZERO_2, "jumps": [LOWERING_2]}),
        "jumps[0] must be an object",
    ),
    "jump-without-matrix": (
        json.dumps({"dim": 2, "hamiltonian": ZERO_2, "jumps": [{"rate": 1.0}]}),
        "jumps[0] is missing 'matrix'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_is_a_format_error(tmp_path, capsys, case):
    text, field = MALFORMED_MODELS[case]
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert field in str(excinfo.value)
    assert main(["spectrum", str(path)]) == 2
    assert field in capsys.readouterr().err


# (observables file object, what the error must name)
MALFORMED_OBSERVABLES = {
    "no-list": ({"dim": 2}, "missing 'observables' list"),
    "object-not-list": ({"dim": 2, "observables": {"A": ZERO_2}}, "missing 'observables' list"),
    "item-not-object": ({"dim": 2, "observables": [ZERO_2]}, "observables[0] must be an object"),
    "item-without-matrix": (
        {"dim": 2, "observables": [{"label": "A"}]},
        "observables[0] must be an object with 'matrix'",
    ),
    "label-not-string": (
        {"dim": 2, "observables": [{"label": 5, "matrix": ZERO_2}]},
        "observables[0].label must be a string",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_OBSERVABLES))
def test_malformed_observables_file_is_a_format_error(tmp_path, case):
    data, message = MALFORMED_OBSERVABLES[case]
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load_observables(path)


@pytest.mark.parametrize(
    "save, item",
    [
        (save_model, build_tls(TLSParams(0.3, 0.7, 1.0))),
        (save_state, GROUND),
        (save_observables, [("Sz", SZ)]),
    ],
    ids=["model", "state", "observables"],
)
def test_save_rejects_a_wrong_number_of_basis_labels(tmp_path, save, item):
    path = tmp_path / "out.json"
    with pytest.raises(ValidationError, match="1 basis labels for dimension 2"):
        save(path, item, basis_labels=["only-one"])
    assert not path.exists()


# a file of dimension 10**6 without basis_labels whose matrix has one row
HUGE_DIM_FILES = {
    "model": (load_model, {"dim": 10**6, "hamiltonian": [[[0, 0]]]}),
    "state": (load_state, {"dim": 10**6, "matrix": [[[0, 0]]]}),
    "observables": (
        load_observables,
        {"dim": 10**6, "observables": [{"label": "A", "matrix": [[[0, 0]]]}]},
    ),
}


@pytest.mark.parametrize("kind", sorted(HUGE_DIM_FILES))
def test_a_large_dim_is_rejected_without_allocating_for_it(tmp_path, kind):
    """Labels are checked only when the file gives them, so nothing of size ``dim`` is
    built before the one-row matrix is rejected."""
    load, data = HUGE_DIM_FILES[kind]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError, match="expected 1000000 rows"):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("method", ["vec", "expm-action", "arnoldi", "heisenberg"])
def test_nan_rate_rejected_before_propagation(tmp_path, capsys, method):
    model = tmp_path / "model.json"
    model.write_text(MALFORMED_MODELS["nan-rate"][0])
    state = tmp_path / "state.json"
    save_state(state, GROUND)
    obs = tmp_path / "obs.json"
    save_observables(obs, [("Sz", SZ)])
    argv = ["propagate", str(model), "--state", str(state), "--observables", str(obs)]
    assert main(argv + ["--t1", "1", "--steps", "3", "--method", method]) == 2
    assert "jumps[0].rate must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[[1, 0], [0, 0]], [[0, 0]]], "matrix: row 1 must have 2 entries"),
        (
            [[[1, 0], [0, 0]], [[0, 0, 0], [0, 0]]],
            "matrix[1][0]: complex scalars must be [re, im] pairs, got [0, 0, 0]",
        ),
        ([[[1, 0], [0, 0]], ["x", [0, 0]]], "matrix[1][0]: complex scalars must be [re, im] pairs, got 'x'"),
        ([[[1, 0], [0, 0]], [None, [0, 0]]], "matrix[1][0]: complex scalars must be [re, im] pairs, got None"),
        (
            [[[1, 0], [0, 0]], [[[0, 0], [0, 0]], [0, 0]]],
            "matrix[1][0]: complex scalars must be [re, im] pairs, got [[0, 0], [0, 0]]",
        ),
        (
            [[[[0, 0], [0, 0]]] * 2] * 2,
            "matrix[0][0]: complex scalars must be [re, im] pairs, got [[0, 0], [0, 0]]",
        ),
        ([[[1, 0], [0, 0]], [[float("nan"), 0], [0, 0]]], "matrix: contains non-finite entries"),
    ],
)
def test_malformed_matrix_messages(tmp_path, matrix, message):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 2, "matrix": matrix}))
    with pytest.raises(ModelFormatError) as excinfo:
        load_state(path)
    assert str(excinfo.value) == f"{path}: {message}"


# each field a matrix is read from: (loader, file object holding matrix m, name in messages)
MATRIX_FIELDS = {
    "state": (load_state, lambda m: {"dim": 2, "matrix": m}, "matrix"),
    "hamiltonian": (load_model, lambda m: {"dim": 2, "hamiltonian": m}, "hamiltonian"),
    "jump": (
        load_model,
        lambda m: {"dim": 2, "hamiltonian": ZERO_2, "jumps": [{"rate": 1.0, "matrix": m}]},
        "jumps[0].matrix",
    ),
    "observable": (
        load_observables,
        lambda m: {"dim": 2, "observables": [{"label": "A", "matrix": m}]},
        "observables[0]",
    ),
}


@pytest.mark.parametrize("field", sorted(MATRIX_FIELDS))
@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[[1, 0], [0, 0]], [[0, 0]]], ": row 1 must have 2 entries"),
        (
            [[[1, 0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "[0][0]: complex scalars must be [re, im] pairs, got [1, 0, 0]",
        ),
        ([[["a", 0], [0, 0]], [[0, 0], [0, 0]]], "[0][0]: complex scalars must be [re, im] pairs, got ['a', 0]"),
        ([[[0, 0]] * 3] * 2, ": row 0 must have 2 entries"),  # (2, 3, 2): not square
        ([[[0, 0]] * 3] * 3, ": expected 2 rows"),  # (3, 3, 2): square, but not dim x dim
        ([[[HUGE_INT, 0], [0, 0]], [[0, 0], [0, 0]]], ": contains non-finite entries"),
        ([[True, False], [False, True]], "[0][0]: complex scalars must be [re, im] pairs, got True"),
        (
            [[[True, 0], [0, 0]], [[0, 0], [1, 0]]],
            "[0][0]: complex scalars must be [re, im] pairs, got [True, 0]",
        ),
        (
            [[[0.5, 0], [0, 0]], [[0, 0], [0.5, False]]],
            "[1][1]: complex scalars must be [re, im] pairs, got [0.5, False]",
        ),
    ],
    ids=[
        "ragged", "three-entry-pair", "string", "2x3", "3x3", "huge-int", "bare-bools",
        "true-entry", "false-among-floats",
    ],
)
def test_malformed_matrix_message_in_every_field(tmp_path, field, matrix, message):
    """Whether or not the parser turned a matrix into an array, the message names the first fault."""
    loader, document, where = MATRIX_FIELDS[field]
    path = tmp_path / "file.json"
    path.write_text(json.dumps(document(matrix)))
    with pytest.raises(ModelFormatError) as excinfo:
        loader(path)
    assert str(excinfo.value) == f"{path}: {where}{message}"


@pytest.mark.parametrize("field", sorted(MATRIX_FIELDS))
def test_boolean_entry_exits_2_naming_it(tmp_path, capsys, field):
    _, document, where = MATRIX_FIELDS[field]
    files = {name: tmp_path / f"{name}.json" for name in ("model", "state", "obs")}
    save_model(files["model"], build_tls(TLSParams(0.3, 0.7, 1.0)))
    save_state(files["state"], GROUND)
    save_observables(files["obs"], [("Sz", SZ)])
    target = files[{"state": "state", "observable": "obs"}.get(field, "model")]
    target.write_text(json.dumps(document([[[0, 0], [0, 0]], [[0, 0], [True, 0]]])))
    argv = ["propagate", str(files["model"]), "--state", str(files["state"])]
    assert main(argv + ["--observables", str(files["obs"]), "--t1", "1", "--steps", "3"]) == 2
    message = f"{target}: {where}[1][1]: complex scalars must be [re, im] pairs, got [True, 0]"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_label_with_true_loads_the_same_numbers(tmp_path, rng):
    """A literal in a string sends the file through the entry-by-entry walk, which reads
    every number as the array path does."""
    matrices = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    rows = [json_rows(m) for m in matrices]
    rows[1][0][0][0] = 7  # an integer among floats
    for name, labels in (("plain", ["a", "b"]), ("literal", ["true", "false b"])):
        items = [{"label": label, "matrix": r} for label, r in zip(labels, rows)]
        (tmp_path / f"{name}.json").write_text(json.dumps({"dim": 3, "observables": items}))
    plain, literal = (load_observables(tmp_path / f"{name}.json") for name in ("plain", "literal"))
    assert [label for label, _ in literal] == ["true", "false b"]
    for (_, got), (_, expected) in zip(literal, plain):
        assert got.tobytes() == expected.tobytes()


def test_loading_matrix_units_runs_no_garbage_collection(tmp_path):
    """Each matrix's lists are freed as its object closes, so the 256 units of n = 16 load
    without one pass of the cyclic garbage collector."""
    n = 16
    units = [(f"E{k}", np.eye(n * n)[k].reshape(n, n)) for k in range(n * n)]
    path = tmp_path / "units.json"
    save_observables(path, units)
    passes = []

    def record(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        loaded = load_observables(path)
    finally:
        gc.callbacks.remove(record)
    assert passes == []
    assert [label for label, _ in loaded] == [label for label, _ in units]
    for (_, got), (_, written) in zip(loaded, units):
        assert got.dtype == complex
        assert got.tobytes() == written.astype(complex).tobytes()

_INTS = st.integers(-(2**70), 2**70)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308]),
)
_ENTRIES = st.sampled_from(
    [_INTS, _FLOATS, st.booleans(), st.one_of(_INTS, _FLOATS, st.booleans())]
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_matrix_parse_is_bit_exact(tmp_path, data):
    dim = data.draw(st.integers(1, 6))
    number = data.draw(_ENTRIES)
    pair = st.lists(number, min_size=2, max_size=2)
    rows = data.draw(st.lists(st.lists(pair, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": dim, "matrix": rows}))
    booleans = [(i, j) for i, row in enumerate(rows) for j, entry in enumerate(row) if bool in map(type, entry)]
    if booleans:  # true and false are not numbers: the first entry that holds one is named
        i, j = booleans[0]
        with pytest.raises(ModelFormatError, match=rf"matrix\[{i}\]\[{j}\]: complex scalars"):
            load_state(path)
        return
    parsed = load_state(path)
    reference = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        for j, (re, im) in enumerate(row):
            reference[i, j] = complex(float(re), float(im))
    assert parsed.shape == (dim, dim)
    assert parsed.dtype == complex
    # compare bit patterns, so the sign of a zero counts
    assert np.array_equal(np.ascontiguousarray(parsed).view(np.uint64), reference.view(np.uint64))


def _load_by(monkeypatch, whole, loader, path):
    """``loader(path)``, or its error message; unless ``whole``, through the standard decoder."""
    with monkeypatch.context() as patch:
        if not whole:
            patch.setattr(modelio, "_decode_whole", lambda raw: None)
        try:
            return loader(path)
        except ModelFormatError as exc:
            return str(exc)


def _model_bytes(model) -> list:
    if isinstance(model, str):
        return [model]
    return [model.hamiltonian.tobytes()] + [(np.float64(r).tobytes(), op.tobytes()) for r, op in model.jumps]


_SIGN = st.sampled_from(["", "-"])
_LONG_DECIMALS = st.builds(  # 17 to 40 significant digits, some past the float range
    lambda sign, lead, rest, exp: f"{sign}{lead}.{rest}e{exp}",
    _SIGN, st.integers(1, 9), st.text("0123456789", min_size=16, max_size=39), st.integers(-345, 310),
)
_NEAR_POWERS = st.builds(  # integers about 2^53, 2^63 and 2^64, where orjson's ints end
    lambda sign, base, offset: f"{sign}{base + offset}",
    _SIGN, st.sampled_from([2**53, 2**63, 2**64]), st.integers(-2, 2),
)
_LITERALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # subnormals and DBL_MAX too
    st.sampled_from(["0", "-0", "0.0", "-0.0", "5e-324", "-2.2250738585072014e-308",
                     "1.7976931348623157e308", "1.7976931348623158e+308", "-1.7976931348623159e308"]),
    _LONG_DECIMALS,
    _NEAR_POWERS,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_both_decoders_read_the_same_numbers(tmp_path, monkeypatch, data):
    """orjson's whole parse and the streaming parser give bit-identical matrices and rates,
    or the same message, and every number reads as ``float()`` reads the number Python's
    ``json`` makes of it (``-0`` is the integer 0)."""
    dim = data.draw(st.integers(1, 3))
    entry = data.draw(st.sampled_from([_LITERALS, st.one_of(_LITERALS, st.sampled_from(["true", "false"]))]))
    jumps = data.draw(st.lists(
        st.tuples(
            _LITERALS.map(lambda s: s.lstrip("-")),
            st.lists(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=dim, max_size=dim),
                     min_size=dim, max_size=dim),
        ),
        min_size=1, max_size=2,
    ))

    def text(rows):
        return "[" + ",".join("[" + ",".join(f"[{re},{im}]" for re, im in row) + "]" for row in rows) + "]"

    zero = text([[("0", "0")] * dim] * dim)
    items = ",".join(f'{{"rate": {rate}, "matrix": {text(rows)}}}' for rate, rows in jumps)
    path = tmp_path / "model.json"
    path.write_text(f'{{"dim": {dim}, "hamiltonian": {zero}, "jumps": [{items}]}}')
    whole, streamed = (_load_by(monkeypatch, whole, load_model, path) for whole in (True, False))
    assert _model_bytes(whole) == _model_bytes(streamed)
    expected = []  # the rate and matrix of each jump, until the first fault's message
    for k, (rate, rows) in enumerate(jumps):
        rate = float(json.loads(rate))
        booleans = [
            (i, j) for i, row in enumerate(rows) for j, pair in enumerate(row) if {"true", "false"} & set(pair)
        ]
        if not booleans:
            matrix = np.array([[complex(*map(float, map(json.loads, pair))) for pair in row] for row in rows])
        if not math.isfinite(rate):
            expected = f"{path}: jumps[{k}].rate must be a finite number"
        elif booleans:  # true and false are not numbers: the first entry that holds one is named
            i, j = booleans[0]
            expected = f"{path}: jumps[{k}].matrix[{i}][{j}]: complex scalars must be [re, im] pairs"
        elif not np.isfinite(matrix).all():  # a decimal past the float range
            expected = f"{path}: jumps[{k}].matrix: contains non-finite entries"
        else:
            expected.append((rate, matrix))
            continue
        break
    if isinstance(expected, str):
        assert whole.startswith(expected)
    else:
        for (rate, op), (rate_ref, reference) in zip(whole.jumps, expected, strict=True):
            # compare bit patterns, so the sign of a zero counts
            assert np.float64(rate).tobytes() == np.float64(rate_ref).tobytes()
            assert np.ascontiguousarray(op).tobytes() == reference.tobytes()


def test_files_at_and_past_the_cut_load_the_same(tmp_path, monkeypatch, rng):
    """Files of 2**14 arrays and of one more are decoded whole, with the numbers the
    standard decoder reads."""
    arrays, n = 2**14, 4
    per_item = 1 + n + n * n  # a matrix, its rows and its pairs
    count = (arrays - 1) // per_item  # and one for the list of items
    items = [
        {"label": f"X{k}", "matrix": json_rows(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))}
        for k in range(count)
    ]
    padding = arrays - 1 - count * per_item  # brackets in an unread string
    decoded = []
    original = modelio._decode_whole
    monkeypatch.setattr(modelio, "_decode_whole", lambda raw: decoded.append(len(raw)) or original(raw))
    for extra in (0, 1):
        path = tmp_path / f"at+{extra}.json"
        path.write_text(json.dumps({"dim": n, "observables": items, "note": "[" * (padding + extra)}))
        assert path.read_bytes().count(b"[") == arrays + extra
        whole, streamed = (_load_by(monkeypatch, whole, load_observables, path) for whole in (True, False))
        assert [label for label, _ in whole] == [label for label, _ in streamed] == [item["label"] for item in items]
        for (_, a), (_, b) in zip(whole, streamed):
            assert a.tobytes() == b.tobytes()
    assert len(decoded) == 2  # each file was decoded whole once


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dim": 18446744073709551616, "matrix": [[[1, 0]]]}', ": expected 18446744073709551616 rows"),
        ('{"dim": 1, "matrix": [[[NaN, 0]]]}', ": matrix: contains non-finite entries"),
        ('{"dim": 1, "matrix": [[[1e400, 0]]]}', ": matrix: contains non-finite entries"),
        (f'{{"dim": 1, "matrix": [[[{2**64 + 1}, 0, 0]]]}}', f"got [{2**64 + 1}, 0, 0]"),
        ('{"dim": 1, "matrix": [[[1, 0]]], "basis_labels": ["\\ud800"]}', None),
        ('{"dim": 1, "matrix": [[[1, 0]]]\r\n,}', "line 2 column 2 (char 33)"),
        ('\ufeff{"dim": 1, "matrix": [[[1, 0]]]}', "Unexpected UTF-8 BOM"),
    ],
    ids=["dim-past-64-bits", "nan", "overflow", "int-past-64-bits-in-message", "lone-surrogate", "crlf", "bom"],
)
def test_input_orjson_refuses_reads_as_the_standard_decoder_reads_it(tmp_path, monkeypatch, text, message):
    path = tmp_path / "state.json"
    path.write_bytes(text.encode("utf-8"))
    whole, streamed = (_load_by(monkeypatch, whole, load_state, path) for whole in (True, False))
    if message is None:
        assert whole.tobytes() == streamed.tobytes()
    else:
        assert whole == streamed
        assert message in whole


def _deep_state(depth: int, opening: str = "[", closing: str = "]") -> str:
    """A state file whose matrix entry is nested ``depth`` levels deep."""
    return '{"dim": 1, "matrix": ' + opening * depth + "[0, 0]" + closing * depth + "}"


@pytest.mark.parametrize("depth", [1010, 5000])
def test_nesting_past_the_recursion_limit_is_one_format_error(tmp_path, capsys, depth):
    """orjson reads 1010 levels, the matrix does not convert and the standard decoder
    recurses; 5000 levels go to the standard decoder at once.  Either way the file is one
    format error, also at the command line, and no ``RecursionError`` escapes."""
    path = tmp_path / "state.json"
    path.write_text(_deep_state(depth))
    try:
        json.loads(_deep_state(depth))
        message = r": matrix\[0\]\[0\]: complex scalars must be \[re, im\] pairs"
    except RecursionError:  # past the nesting this interpreter's json reads
        message = " is not valid JSON: maximum recursion depth exceeded"
    with pytest.raises(ModelFormatError, match=re.escape(str(path)) + message):
        load_state(path)
    assert main(["spectrum", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")], ids=["arrays", "objects"])
def test_nesting_orjson_cannot_parse_is_one_format_error(tmp_path, opening, closing):
    """200k levels overflow orjson's recursive parse, which would kill the process, so the
    file goes to the standard decoder, which refuses it in one error line."""
    path = tmp_path / "state.json"
    path.write_text(_deep_state(200_000, opening, closing))
    proc = subprocess.run(
        [sys.executable, "-m", "lindbladmv.cli", "spectrum", str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path} is not valid JSON: maximum recursion depth exceeded")
    assert proc.stderr.count("\n") == 1


_HEAD = '{"dim": 1, "matrix": [[[1, 0]]], '


@pytest.mark.parametrize(
    "text, whole",
    [
        (_HEAD + '"note": "' + "[" * 5000 + '"}', True),
        (_HEAD + '"note": "\\"' + "[" * 5000 + '"}', True),
        (_HEAD + '"deep": ' + "[" * 4000 + "]" * 4000 + "}", True),
        (_HEAD + '"note": "' + "]" * 5000 + '", "deep": ' + "[" * 5000 + "]" * 5000 + "}", False),
        (_HEAD + '"note": "\\\\", "deep": ' + "[" * 5000 + "]" * 5000 + "}", False),
    ],
    ids=["brackets-in-a-string", "after-an-escaped-quote", "4000-deep", "after-closers-in-a-string",
         "after-an-escaped-backslash"],
)
def test_only_nesting_outside_strings_keeps_a_file_from_orjson(text, whole):
    """Brackets in strings are not nesting, whatever a string holds before them."""
    orjson.loads(text)  # valid JSON
    assert (modelio._decode_whole(text.encode()) is not None) == whole


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_loading_leaves_the_collector_as_it_was(tmp_path, enabled):
    """The pause of the cyclic garbage collector ends with the state it found, whichever
    way a load ends: a valid file, a NaN orjson refuses, bad JSON and a 1010-deep file."""
    files = {
        "valid": '{"dim": 1, "matrix": [[[1, 0]]]}',
        "nan": '{"dim": 1, "matrix": [[[NaN, 0]]]}',
        "invalid": '{"dim": 1, "matrix": [[[1, 0]]],}',
        "deep": _deep_state(1010),
    }
    try:
        (gc.enable if enabled else gc.disable)()
        for name, text in files.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            if name == "valid":
                load_state(path)
            else:
                with pytest.raises(ModelFormatError):
                    load_state(path)
            assert gc.isenabled() == enabled, name
    finally:
        gc.enable()


@pytest.mark.parametrize("save", [False, True])
def test_label_utf8_cannot_encode_is_rejected(tmp_path, save):
    """A lone surrogate, which a JSON escape can spell, cannot be written to the CSV header."""
    path = tmp_path / "obs.json"
    if save:
        with pytest.raises(ValidationError, match=r"observables\[0\]\.label must be text UTF-8 can encode"):
            save_observables(path, [("S\ud800z", SZ)])
        assert not path.exists()
        return
    item = '{"label": "S\\ud800z", "matrix": %s}' % json.dumps(json_rows(SZ))
    path.write_text('{"dim": 2, "observables": [%s]}' % item)
    with pytest.raises(ModelFormatError) as excinfo:
        load_observables(path)
    assert str(excinfo.value) == (
        f"{path}: observables[0].label must be text UTF-8 can encode, got 'S\\ud800z'"
    )
