"""JSON file formats for models, states and observable lists.

Complex scalars are encoded as two-element ``[re, im]`` arrays of numbers
(``true`` and ``false`` are not numbers) and matrices as nested row lists.
Floats go through JSON's shortest round-trip decimal encoding, so write ->
parse reproduces the numbers bit-exactly.  The two decoders below give every
number the same float.
"""

from __future__ import annotations

import gc
import json
import math
import numbers

import numpy as np
import orjson

from .errors import ModelFormatError, ValidationError
from .linalg import _as_array, _as_float, _is_number, as_square
from .model import LindbladModel

#: orjson 3.8.3 parses nesting recursively and overflows an 8 MB stack past about 140k
#: levels, which kills the process, so a file nested deeper goes to Python's ``json``.
_ORJSON_DEPTH = 2**12
_NOT_NESTING = bytes(range(256)).translate(None, b'[]{}"')


def _matrix_to_rows(matrix) -> list:
    matrix = np.asarray(matrix, dtype=complex)
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def _check_label(label: str, where: str, error) -> None:
    """Raise ``error`` naming ``where`` if ``label`` cannot be a CSV column name as it stands."""
    if any(c in label for c in ',"\r\n'):
        raise error(f"{where}.label must not contain a comma, quote or line break")
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which JSON's \u escapes can spell
        raise error(f"{where}.label must be text UTF-8 can encode, got {label!r}") from None


def open_for_writing(path, mode: str = "w"):
    """``open(path, mode)`` for text; a path that cannot be opened (a missing directory, a
    directory, no permission) raises :class:`ValidationError` naming it."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _save(path, dim: int, basis_labels, **fields) -> None:
    labels = list(basis_labels) if basis_labels is not None else [str(i) for i in range(dim)]
    if len(labels) != dim:
        raise ValidationError(f"{len(labels)} basis labels for dimension {dim}")
    with open_for_writing(path) as handle:
        json.dump({"dim": dim, "basis_labels": labels, **fields}, handle, indent=1)
        handle.write("\n")


def _pair_to_complex(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        raise ModelFormatError(f"{where}: complex scalars must be [re, im] pairs, got {value!r}")
    return complex(_as_float(value[0]), _as_float(value[1]))


def _convert_matrices(obj: dict) -> bool:
    """Turn each ``matrix`` or ``hamiltonian`` value of ``obj`` that one ``np.array`` call
    makes numbers of shape ``(m, m, 2)`` into that array; whether every such value did.

    Any other value stays as parsed, for :func:`_rows_to_matrix` to walk.
    """
    converted = True
    for key in ("matrix", "hamiltonian"):
        if key in obj:
            try:
                pairs = np.array(obj[key])
            except ValueError:  # ragged nesting
                converted = False
                continue
            if pairs.dtype.kind in "iuf" and pairs.ndim == 3 and pairs.shape[1:] == (len(pairs), 2):
                obj[key] = pairs
            else:
                converted = False
    return converted


def _rows_to_matrix(rows, dim: int, where: str) -> np.ndarray:
    """Parse ``dim`` rows of ``[re, im]`` pairs, as :func:`_decode_whole` left them.

    Each number converts exactly as ``float()`` converts it; input left as lists is walked
    entry by entry to name the first bad row or entry.
    """
    if isinstance(rows, np.ndarray) and rows.shape == (dim, dim, 2):
        out = rows.astype(float).view(complex)[..., 0]
    else:
        if not isinstance(rows, list) or len(rows) != dim:
            raise ModelFormatError(f"{where}: expected {dim} rows")
        out = np.empty((dim, dim), dtype=complex)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise ModelFormatError(f"{where}: row {i} must have {dim} entries")
            for j, entry in enumerate(row):
                out[i, j] = _pair_to_complex(entry, f"{where}[{i}][{j}]")
    if not np.isfinite(out).all():
        raise ModelFormatError(f"{where}: contains non-finite entries")
    return out


def _has_boolean(raw: bytes) -> bool:
    """Whether the UTF-8 ``raw`` holds ``true`` or ``false``, in strings too.  Only each ``u``
    and ``f`` is looked at: no number holds them and no key but ``jumps``, so memchr scans."""
    for letter, literal, offset in ((b"u", b"true", 2), (b"f", b"false", 0)):
        i = raw.find(letter)
        while i >= 0:
            if i >= offset and raw.startswith(literal, i - offset):
                return True
            i = raw.find(letter, i + 1)
    return False


def _decode_whole(raw: bytes):
    """``raw`` decoded by orjson, with each matrix the loaders read converted by
    :func:`_convert_matrices`, or ``None`` where the standard decoder could answer otherwise.

    orjson refuses ``NaN``, ``Infinity``, numbers past the float range, lone surrogates and
    bad JSON, which the standard decoder reads or reports in its own words, and it reads an
    integer beyond 64 bits as a float.  A matrix that does not convert is walked, and its
    error message shows the entries as decoded, so it too is left to the standard decoder,
    as is a file nested deeper than :data:`_ORJSON_DEPTH`.

    The cyclic garbage collector is paused until the conversion frees the row and pair lists,
    since a pass over the whole tree costs more than the parse, and then left as found.
    """
    if len(raw) > _ORJSON_DEPTH:  # a shorter file cannot nest deeper
        unescaped = raw.replace(b"\\\\", b"").replace(b'\\"', b"") if b"\\" in raw else raw
        # the nesting outside strings, each quote left opening or closing one, counted after
        # the innermost [] pairs (one level): [ and { have bit 1 set, ] and } have not
        brackets = b"".join(unescaped.translate(None, _NOT_NESTING).split(b'"')[::2])
        steps = (np.frombuffer(brackets.replace(b"[]", b""), np.int8) & 2) - 1
        if 1 + np.cumsum(steps).max(initial=0) > _ORJSON_DEPTH:
            return None
    enabled = gc.isenabled()
    gc.disable()
    try:
        data = orjson.loads(raw)
        if not isinstance(data, dict):
            return data
        if isinstance(data.get("dim"), float):
            return None
        holders = [data]
        for key in ("jumps", "observables"):
            if isinstance(data.get(key), list):
                holders += [item for item in data[key] if isinstance(item, dict)]
        return data if all(map(_convert_matrices, holders)) else None
    except orjson.JSONDecodeError:
        return None
    finally:
        if enabled:
            gc.enable()


def _load_json(path) -> tuple[dict, int]:
    """The top-level object of a file and its ``dim``, after checking ``dim`` and, when the
    file gives them, the ``basis_labels``; a file that holds ``true`` or ``false``, or one
    :func:`_decode_whole` leaves, goes through ``json.loads``, its matrices walked entry by entry."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    # np.array would read a boolean among numbers as 1 or 0, so then every entry is walked
    data = None if _has_boolean(raw) else _decode_whole(raw)
    if data is None:
        try:
            # \r\n and \r read as \n, as text mode reads them, for a message's line and column
            text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too long an int, too deep
            raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    if "dim" not in data:
        raise ModelFormatError(f"{path}: missing 'dim'")
    dim = data["dim"]
    if not _is_number(dim, numbers.Integral) or dim < 1:
        raise ModelFormatError(f"{path}: 'dim' must be a positive integer, got {dim!r}")
    labels = data.get("basis_labels")
    if labels is not None and not (
        isinstance(labels, list) and len(labels) == dim and all(isinstance(s, str) for s in labels)
    ):
        raise ModelFormatError(f"{path}: 'basis_labels' must be {dim} strings")
    return data, dim


def load_model(path) -> LindbladModel:
    """Parse a model file; raises :class:`ModelFormatError` naming the problem."""
    data, dim = _load_json(path)
    if "hamiltonian" not in data:
        raise ModelFormatError(f"{path}: missing 'hamiltonian'")
    hamiltonian = _rows_to_matrix(data["hamiltonian"], dim, f"{path}: hamiltonian")
    if not isinstance(data.get("jumps", []), list):
        raise ModelFormatError(f"{path}: 'jumps' must be a list")
    jumps = []
    for k, jump in enumerate(data.get("jumps", [])):
        if not isinstance(jump, dict):
            raise ModelFormatError(f"{path}: jumps[{k}] must be an object")
        if "rate" not in jump:
            raise ModelFormatError(f"{path}: jumps[{k}] is missing 'rate'")
        rate = jump["rate"]
        rate = _as_float(rate) if _is_number(rate) else math.nan
        if not math.isfinite(rate):
            raise ModelFormatError(f"{path}: jumps[{k}].rate must be a finite number")
        if "matrix" not in jump:
            raise ModelFormatError(f"{path}: jumps[{k}] is missing 'matrix'")
        matrix = _rows_to_matrix(jump["matrix"], dim, f"{path}: jumps[{k}].matrix")
        jumps.append((rate, matrix))
    try:
        return LindbladModel(hamiltonian, tuple(jumps))
    except ValidationError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def save_model(path, model: LindbladModel, basis_labels=None) -> None:
    """Write a model file that :func:`load_model` parses back identically."""
    jumps = [{"rate": rate, "matrix": _matrix_to_rows(op)} for rate, op in model.jumps]
    _save(path, model.dim, basis_labels, hamiltonian=_matrix_to_rows(model.hamiltonian), jumps=jumps)


def load_state(path) -> np.ndarray:
    """Parse a state file (single square matrix); validity checks are the caller's."""
    data, dim = _load_json(path)
    if "matrix" not in data:
        raise ModelFormatError(f"{path}: missing 'matrix'")
    return _rows_to_matrix(data["matrix"], dim, f"{path}: matrix")


def save_state(path, matrix, basis_labels=None) -> None:
    """Write a state file; a matrix :func:`load_state` would reject raises
    :class:`ValidationError`."""
    try:
        matrix = as_square(matrix, "state")
    except ValidationError as exc:
        raise ValidationError(f"state must be a finite square 2-D matrix ({exc})") from exc
    _save(path, matrix.shape[0], basis_labels, matrix=_matrix_to_rows(matrix))


def load_observables(path) -> list[tuple[str, np.ndarray]]:
    """Parse an observables file: a list of labeled square matrices."""
    data, dim = _load_json(path)
    if "observables" not in data or not isinstance(data["observables"], list):
        raise ModelFormatError(f"{path}: missing 'observables' list")
    out = []
    for k, item in enumerate(data["observables"]):
        if not isinstance(item, dict) or "matrix" not in item:
            raise ModelFormatError(f"{path}: observables[{k}] must be an object with 'matrix'")
        label = item.get("label", f"obs{k}")
        if not isinstance(label, str):
            raise ModelFormatError(f"{path}: observables[{k}].label must be a string")
        _check_label(label, f"{path}: observables[{k}]", ModelFormatError)
        out.append((label, _rows_to_matrix(item["matrix"], dim, f"{path}: observables[{k}]")))
    if not out:
        raise ModelFormatError(f"{path}: observables list is empty")
    return out


def save_observables(path, labeled_matrices, basis_labels=None) -> None:
    """Write an observables file; an item :func:`load_observables` would reject raises
    :class:`ValidationError` naming it."""
    labeled = [(str(label), m) for label, m in labeled_matrices]
    if not labeled:
        raise ValidationError("observables list is empty")
    try:
        first = _as_array(labeled[0][1], "observables[0]").shape
    except ValidationError as exc:
        raise ValidationError(f"observables[0] must be a finite square matrix ({exc})") from exc
    dim = first[0] if first else 0  # the rows of the first matrix set the dimension
    observables = []
    for k, (label, matrix) in enumerate(labeled):
        _check_label(label, f"observables[{k}]", ValidationError)
        try:
            matrix = as_square(matrix, f"observables[{k}]", dim)
        except ValidationError as exc:
            raise ValidationError(f"observables[{k}] must be a finite {dim} x {dim} matrix") from exc
        observables.append({"label": label, "matrix": _matrix_to_rows(matrix)})
    _save(path, dim, basis_labels, observables=observables)
