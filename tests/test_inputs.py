"""Ragged or non-numeric arrays raise ValidationError at every public entry point.

One checker converts every input array, so numpy's own ``ValueError`` for a
ragged nesting or an unparseable string never escapes, and numeric strings,
complex times and ints past the float range are not taken as numbers.
"""

import numpy as np
import pytest

from lindbladmv import (
    LindbladModel,
    ModeDecomposition,
    Superoperator,
    ValidationError,
    apply_adjoint,
    apply_generator,
    arnoldi_reduce,
    close_set,
    duality_check,
    eig,
    expectations,
    expm,
    expm_action,
    hs_inner,
    hs_norm,
    observable_modes,
    propagate,
    propagate_expectations,
    propagate_linear,
    propagate_reduced,
    unvec,
    validate_state,
    vec,
)
from lindbladmv.linalg import as_square, as_times, eigvals
from lindbladmv.tls import GROUND, IDENTITY, SX, SY, SZ, TLSParams, build_tls

MODEL = build_tls(TLSParams(0.3, 0.7, 1.0))
SUPEROP = Superoperator(2, np.zeros((4, 4)))
REDUCTION = arnoldi_reduce(MODEL, GROUND, 3)
REP = close_set(MODEL, [IDENTITY, SX, SY, SZ])

#: Each entry point with the bad input in one of its array arguments.
ENTRY_POINTS = {
    "LindbladModel": lambda bad: LindbladModel(bad),
    "validate_state": validate_state,
    "vec": vec,
    "unvec": lambda bad: unvec(bad, 2),
    "expm": expm,
    "hs_norm": hs_norm,
    "eig": eig,
    "eigvals": eigvals,
    "expm_action": lambda bad: expm_action(bad, np.ones(2)),
    "propagate_linear": lambda bad: propagate_linear(bad, np.ones(2), [0.0, 1.0]),
    "apply_generator": lambda bad: apply_generator(MODEL, bad),
    "apply_adjoint": lambda bad: apply_adjoint(MODEL, bad),
    "propagate": lambda bad: propagate(MODEL, bad, [0.0, 1.0]),
    "arnoldi_reduce": lambda bad: arnoldi_reduce(MODEL, bad, 1),
    "hs_inner": lambda bad: hs_inner(bad, SZ),
    "close_set": lambda bad: close_set(MODEL, bad),
    "expectations": lambda bad: expectations([SZ], bad),
    "duality_check": lambda bad: duality_check(MODEL, bad, SZ),
    "observable_modes": lambda bad: observable_modes(SUPEROP, GROUND, bad),
    "Superoperator": lambda bad: Superoperator(2, bad),
    "propagate-times": lambda bad: propagate(MODEL, GROUND, bad),
    "propagate_linear-times": lambda bad: propagate_linear(-np.eye(2), np.ones(2), bad),
    "expm_action-t": lambda bad: expm_action(-np.eye(2), np.ones(2), bad),
    "propagate_reduced-times": lambda bad: propagate_reduced(REDUCTION, bad),
    "propagate_expectations-initial": lambda bad: propagate_expectations(REP, bad, [1.0]),
    "ModeDecomposition.evaluate": lambda bad: ModeDecomposition(
        np.zeros(1), np.ones(1)
    ).evaluate(bad),
}


@pytest.mark.parametrize(
    "bad",
    [[[0.5, 0], [0]], "ab", [["1", "0"], ["0", "1"]], np.array([0.0, 0.5 + 0.5j]), [0.0, 10**400],
     [0.0, True, 10**20]],
    ids=["ragged", "non-numeric", "numeric-strings", "complex-grid", "huge-int-grid", "mixed-objects"],
)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS), ids=list(ENTRY_POINTS))
def test_ragged_or_non_numeric_input_is_a_validation_error(entry, bad):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[entry](bad)


def test_boolean_among_listed_times_is_no_time():
    # numpy promotes [0, True] to the grid [0, 1]; an int past int64 makes the list objects
    for times in ([0, True], [0.0, True, 10**20]):
        with pytest.raises(ValidationError, match="not booleans"):
            as_times(times)
    with pytest.raises(ValidationError, match="real numbers with one shape"):
        as_times([0.0, 10**400])  # past the float range, with no boolean


def test_boolean_in_nested_rows_is_no_number():
    # numpy promotes [[True, 0], [0, 1]] to the identity
    with pytest.raises(ValidationError, match="not booleans"):
        as_square([[True, 0], [0, 1]])


def test_boolean_array_in_a_list_of_operators_is_no_number():
    # numpy promotes a boolean identity stacked with a float matrix to the float identity
    with pytest.raises(ValidationError, match="not booleans"):
        expectations([np.eye(2, dtype=bool), np.eye(2)], GROUND)
