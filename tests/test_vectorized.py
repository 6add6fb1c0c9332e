import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbladmv.cli import main
from lindbladmv.errors import (
    ComputedStateError,
    NumericalError,
    StateValidationError,
    ValidationError,
)
from lindbladmv.linalg import EPS, eigvals, hs_inner, propagate_linear
from lindbladmv.model import (
    HERMITICITY_RTOL,
    TRACE_RTOL,
    LindbladModel,
    apply_generator,
    random_density,
    random_model,
    state_violations,
)
from lindbladmv.modelio import save_model, save_observables, save_state
from lindbladmv.tls import EXCITED, GROUND, TLSParams, build_tls
from lindbladmv.vectorized import (
    Superoperator,
    build_superoperator,
    from_hermitian_basis,
    hermitian_matrix,
    propagate,
    spectrum,
    to_hermitian_basis,
    unvec,
    vec,
)

from conftest import (
    benchmark_model,
    ep_params,
    multiset_close,
    random_hermitian,
    tls_superop_golden,
)


class TestVec:
    def test_column_stacking_order(self):
        rho = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vec(rho), [1.0, 3.0, 2.0, 4.0])

    def test_identity(self):
        assert np.array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])

    def test_ground_state(self):
        assert np.array_equal(vec(GROUND), [0.0, 0.0, 0.0, 1.0])

    def test_unvec_inverse(self):
        assert np.array_equal(unvec(np.array([1.0, 3.0, 2.0, 4.0]), 2), [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(unvec(np.array([0.0, 0.0, 0.0, 1.0]), 2), GROUND)

    def test_round_trip(self, rng):
        for n in (2, 3, 5):
            rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert np.array_equal(unvec(vec(rho), n), rho)
            r = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
            assert np.array_equal(vec(unvec(r, n)), r)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            unvec(np.ones(5), 2)

    @pytest.mark.parametrize("dim", [2.0, np.float64(2.0), True, 0, -2], ids=repr)
    def test_unvec_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValidationError, match="dim"):
            unvec(np.ones(4), dim)

    def test_unvec_takes_numpy_integers(self):
        assert np.array_equal(unvec(np.arange(4.0), np.int64(2)), [[0.0, 2.0], [1.0, 3.0]])

    @pytest.mark.parametrize("dim", [-2, 0, 2.0, True], ids=repr)
    def test_superoperator_dim_hilbert_must_be_a_positive_integer(self, dim):
        # the matrix has the dim_hilbert**2 rows it asks for, so only the dimension is wrong
        size = abs(int(dim)) ** 2
        with pytest.raises(ValidationError, match="dim_hilbert"):
            Superoperator(dim, np.zeros((size, size)))

    def test_superoperator_takes_numpy_integers(self):
        assert Superoperator(np.int64(2), np.zeros((4, 4))).dim_hilbert == 2


class TestKroneckerIdentities:
    """The three multiplication rules behind the superoperator assembly."""

    def test_left_right_sandwich(self, rng):
        eye = np.eye(3)
        for _ in range(100):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            scale = max(np.linalg.norm(a) * np.linalg.norm(x) * np.linalg.norm(b), 1.0)
            assert np.linalg.norm(np.kron(eye, a) @ vec(x) - vec(a @ x)) <= 1e-12 * scale
            assert np.linalg.norm(np.kron(b.T, eye) @ vec(x) - vec(x @ b)) <= 1e-12 * scale
            assert np.linalg.norm(np.kron(b.T, a) @ vec(x) - vec(a @ x @ b)) <= 1e-12 * scale


class TestBuildSuperoperator:
    def test_defining_contract(self, rng):
        for i in range(100):
            n = (2, 3, 4)[i % 3]
            model = random_model(rng, n, n_jumps=1 + i % 2)
            superop = build_superoperator(model)
            rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            direct = apply_generator(model, rho)
            via_matrix = unvec(superop.matrix @ vec(rho), n)
            image = model.operator.matvec(to_hermitian_basis(rho))
            via_operator = from_hermitian_basis(image)
            scale = max(np.linalg.norm(direct), 1.0)
            assert np.linalg.norm(via_matrix - direct) <= 1e-12 * scale
            assert np.linalg.norm(via_operator - direct) <= 1e-12 * scale

    def test_tls_golden_matrix(self):
        delta, eps, gamma = 0.8, 1.1, 0.6
        superop = build_superoperator(build_tls(TLSParams(delta, eps, gamma)))
        assert np.allclose(superop.matrix, tls_superop_golden(delta, eps, gamma), atol=1e-14)

    def test_dissipator_only_golden(self):
        gamma = 0.9
        superop = build_superoperator(build_tls(TLSParams(0.0, 0.0, gamma)))
        expected = gamma * np.array(
            [
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, -0.5, 0.0, 0.0],
                [0.0, 0.0, -0.5, 0.0],
                [1.0, 0.0, 0.0, 0.0],
            ]
        )
        assert np.allclose(superop.matrix, expected, atol=1e-15)

    def test_trivial_model(self):
        superop = build_superoperator(LindbladModel(np.zeros((2, 2))))
        assert np.array_equal(superop.matrix, np.zeros((4, 4)))

    def test_all_zero_tls_parameters(self):
        superop = build_superoperator(build_tls(TLSParams(0.0, 0.0, 0.0)))
        assert np.array_equal(superop.matrix, np.zeros((4, 4)))

    @pytest.mark.parametrize("rates", [(), (0.0,)], ids=["jump-free", "zero-rate-jump"])
    def test_without_jumps_the_matrix_is_the_commutator(self, rng, rates):
        # the jump sum over no jump must write its zeros: np.empty can hand back
        # the memory of the array of ones freed just before
        n = 4
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = g + g.conj().T
        model = LindbladModel(h, tuple((rate, g) for rate in rates))
        ones = np.ones((n * n, n * n), dtype=complex)
        del ones
        matrix = build_superoperator(model).matrix
        eye = np.eye(n)
        expected = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        assert np.abs(matrix - expected).max() <= 4 * EPS * np.abs(h).max()

    def test_trace_preservation_row_condition(self, rng):
        for n in (2, 3, 4):
            model = random_model(rng, n, n_jumps=2)
            superop = build_superoperator(model)
            row = vec(np.eye(n)).conj() @ superop.matrix
            assert np.linalg.norm(row) <= 1e-11 * max(np.linalg.norm(superop.matrix), 1.0)

    def test_convention_tag(self):
        superop = build_superoperator(build_tls(TLSParams(0.0, 0.0, 1.0)))
        assert superop.convention == "column-stacking"

    def test_assembly_allocates_no_matrix_sized_temporary(self):
        model = random_model(np.random.default_rng(0), 32, n_jumps=2)
        tracemalloc.start()
        try:
            superop = build_superoperator(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * superop.matrix.nbytes


class TestPropagate:
    def test_time_zero_identity(self, rng):
        model = random_model(rng, 2)
        superop = build_superoperator(model)
        rho0 = random_density(rng, 2)
        (out,) = propagate(superop, rho0, [0.0])
        assert np.allclose(out.matrix, rho0.matrix, atol=1e-14)

    def test_exponential_decay(self):
        gamma = 0.8
        superop = build_superoperator(build_tls(TLSParams(0.0, 0.0, gamma)))
        times = [0.0, 0.5, 1.0, 2.0, 5.0]
        states = propagate(superop, EXCITED, times)
        for t, state in zip(times, states):
            assert state.matrix[0, 0].real == pytest.approx(np.exp(-gamma * t), abs=1e-12)

    def test_semigroup_property(self, rng):
        model = random_model(rng, 3)
        superop = build_superoperator(model)
        rho0 = random_density(rng, 3)
        t, s = 0.4, 0.7
        (direct,) = propagate(superop, rho0, [t + s])
        (first,) = propagate(superop, rho0, [t])
        (second,) = propagate(superop, first, [s])
        assert np.allclose(second.matrix, direct.matrix, atol=1e-12)

    def test_states_stay_valid_long_time(self):
        gamma = 1.0
        superop = build_superoperator(build_tls(TLSParams(0.6, 1.2, gamma)))
        times = np.linspace(0.0, 20.0 / gamma, 9)
        states = propagate(superop, EXCITED, times)
        for state in states:
            assert abs(np.trace(state.matrix) - 1.0) <= 1e-10
            assert np.linalg.norm(state.matrix - state.matrix.conj().T) <= 1e-11
            assert np.linalg.eigvalsh(state.matrix).min() >= -1e-10

    def test_methods_agree(self, rng):
        model = random_model(rng, 3)
        superop = build_superoperator(model)
        rho0 = random_density(rng, 3)
        times = [0.3, 0.9, 0.9, 1.4, 4.0]
        dense = propagate(superop, rho0, times)
        action = propagate(model, rho0, times)
        assert len(action) == len(times)
        for a, b in zip(dense, action):
            assert np.linalg.norm(a.matrix - b.matrix) <= 1e-10

    @pytest.mark.parametrize("seed, n", [(7, 32), (1, 24)])
    def test_long_horizon_action_keeps_unit_trace(self, tmp_path, capsys, seed, n):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, n_jumps=2)
        rho0 = random_density(rng, n)
        (_, state) = propagate(model, rho0, [0.0, 100.0])
        assert abs(np.trace(state.matrix) - 1.0) <= 1e-12

        paths = [tmp_path / name for name in ("model.json", "state.json", "obs.json")]
        save_model(paths[0], model)
        save_state(paths[1], rho0.matrix)
        save_observables(paths[2], [("I", np.eye(n))])
        argv = ["propagate", str(paths[0]), "--state", str(paths[1]), "--observables",
                str(paths[2]), "--t1", "100", "--steps", "2", "--method", "expm-action"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(rows[-1]["I_re"]) == pytest.approx(1.0, abs=1e-12)

    def test_long_horizon_dense_trace_within_round_off_budget(self, tmp_path, capsys):
        # the dense exponential leaks trace at O(eps ||S||_1 t): 1.36e-12 here
        rng = np.random.default_rng(7)
        model = random_model(rng, 16, n_jumps=2)
        rho0 = random_density(rng, 16)
        (_, state) = propagate(build_superoperator(model), rho0, [0.0, 46.1])
        assert abs(np.trace(state.matrix) - 1.0) <= 1e-11

        paths = [tmp_path / name for name in ("model.json", "state.json", "obs.json")]
        save_model(paths[0], model)
        save_state(paths[1], rho0.matrix)
        save_observables(paths[2], [("I", np.eye(16))])
        argv = ["propagate", str(paths[0]), "--state", str(paths[1]), "--observables",
                str(paths[2]), "--t1", "46.1", "--steps", "2", "--method", "vec"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(rows[-1]["I_re"]) == pytest.approx(1.0, abs=1e-11)

    def test_invalid_computed_state_is_a_numerical_error(self, rng):
        superop = build_superoperator(random_model(rng, 2))
        rho0 = random_density(rng, 2)
        broken = dataclasses.replace(superop, matrix=superop.matrix + 0.1 * np.eye(4))
        with pytest.raises(NumericalError) as excinfo:
            propagate(broken, rho0, [0.0, 1.0])
        assert not isinstance(excinfo.value, ValidationError)
        assert excinfo.value.violations[0][0] == "trace"
        with pytest.raises(StateValidationError):
            propagate(superop, 2.0 * rho0.matrix, [1.0])

    def test_first_invalid_time_reported_with_its_violations(self, rng):
        superop = build_superoperator(random_model(rng, 3))
        rho0 = random_density(rng, 3)
        broken = dataclasses.replace(superop, matrix=superop.matrix + 0.1 * np.eye(9))
        with pytest.raises(ComputedStateError) as excinfo:
            propagate(broken, rho0, [0.0, 0.5, 1.0])
        assert excinfo.value.time == 0.5
        r0 = to_hermitian_basis(rho0.matrix)
        state = from_hermitian_basis(propagate_linear(hermitian_matrix(broken), r0, [0.0, 0.5])[1])
        budget = TRACE_RTOL + EPS * np.linalg.norm(broken.matrix, 1) * 0.5
        assert excinfo.value.violations == state_violations(state[np.newaxis], budget)[0]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        n_jumps=st.integers(0, 2),
        times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4).map(sorted),
    )
    def test_action_matches_dense_and_stays_physical(self, seed, n, n_jumps, times):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, n_jumps=n_jumps)
        rho0 = random_density(rng, n)
        dense = propagate(build_superoperator(model), rho0, times)
        action = propagate(model, rho0, times)
        for a, b in zip(dense, action):
            rho = b.matrix
            assert np.linalg.norm(rho - a.matrix) <= 1e-9
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.norm(rho - rho.conj().T) <= 1e-12
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        n_jumps=st.integers(0, 2),
        times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5).map(sorted),
        exact=st.booleans(),
    )
    def test_action_matches_dense_from_either_start(self, seed, n, n_jumps, times, exact):
        rng = np.random.default_rng(seed)
        model = benchmark_model(rng, n, (1.0, 0.5)[:n_jumps])
        rho0 = random_density(rng, n).matrix
        rho0 = 0.5 * (rho0 + rho0.conj().T)
        if not exact:  # an anti-Hermitian defect far inside HERMITICITY_RTOL
            g = rng.normal(size=(n, n))
            rho0 = rho0 + 1e-15j * (g + g.T)
        assert to_hermitian_basis(rho0).imag.any() != exact  # real or complex path
        dense = propagate(build_superoperator(model), rho0, times)
        action = propagate(model, rho0, times)
        for a, b in zip(dense, action):
            assert np.linalg.norm(a.matrix - b.matrix) <= 1e-10

    def test_action_grid_takes_one_basis_on_a_benchmark_scaled_model(self, monkeypatch):
        import lindbladmv.linalg as linalg

        rng = np.random.default_rng(16)
        model = benchmark_model(rng, 16)
        rho0 = random_density(rng, 16).matrix
        rho0 = 0.5 * (rho0 + rho0.conj().T)
        runs, exponentials = [], []
        arnoldi_iteration, expm = linalg.arnoldi_iteration, scipy.linalg.expm
        monkeypatch.setattr(
            linalg, "arnoldi_iteration", lambda *a: runs.append(arnoldi_iteration(*a)) or runs[-1]
        )
        monkeypatch.setattr(scipy.linalg, "expm", lambda *a: exponentials.append(a) or expm(*a))
        propagate(model, rho0, np.linspace(0.0, 5.0, 21))
        assert len(runs) == 1
        assert runs[0][1].shape[1] <= 60  # matvecs
        assert len(exponentials) <= 8

    @pytest.mark.parametrize("dense", [True, False], ids=["superoperator", "model"])
    def test_rejects_a_state_of_another_dimension(self, rng, dense):
        model = random_model(rng, 3)
        system = build_superoperator(model) if dense else model
        with pytest.raises(ValidationError, match="does not match dim 3"):
            propagate(system, random_density(rng, 2), [0.0])

    @pytest.mark.parametrize("dense", [True, False], ids=["superoperator", "model"])
    def test_empty_grid_gives_no_states(self, rng, dense):
        model = random_model(rng, 3)
        system = build_superoperator(model) if dense else model
        assert propagate(system, random_density(rng, 3), []) == []

    def test_rejects_bad_times(self, rng):
        superop = build_superoperator(random_model(rng, 2))
        rho0 = random_density(rng, 2)
        with pytest.raises(ValidationError):
            propagate(superop, rho0, [-1.0])
        with pytest.raises(ValidationError):
            propagate(superop, rho0, [1.0, 0.5])


class TestSpectrum:
    def test_exceptional_point(self):
        delta, eps, gamma = ep_params()
        dec = spectrum(build_superoperator(build_tls(TLSParams(delta, eps, gamma))))
        target = [0.0, -2.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0]
        assert multiset_close(dec.eigenvalues, target, 1e-4 * gamma)

    def test_undriven_tls(self):
        gamma = 1.0
        dec = spectrum(build_superoperator(build_tls(TLSParams(0.0, 0.0, gamma))))
        assert multiset_close(dec.eigenvalues, [0.0, -gamma, -gamma / 2, -gamma / 2], 1e-12)

    def test_trivial_model_all_zero(self):
        dec = spectrum(build_superoperator(LindbladModel(np.zeros((2, 2)))))
        assert np.allclose(dec.eigenvalues, 0.0)

    def test_contraction_and_conjugate_symmetry(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            model = random_model(rng, n, n_jumps=2)
            dec = spectrum(build_superoperator(model))
            assert dec.eigenvalues.real.max() <= 1e-9
            assert multiset_close(dec.eigenvalues, np.conj(dec.eigenvalues), 1e-9)

    def test_unique_stationary_state(self, rng):
        # generic relaxing models have exactly one eigenvalue at zero
        for _ in range(10):
            model = random_model(rng, 3, n_jumps=2)
            values = spectrum(build_superoperator(model)).eigenvalues
            near_zero = np.sum(np.abs(values) <= 1e-9)
            assert near_zero == 1


def hermitian_basis(n):
    """The documented members: E_kk, then (E_ij + E_ji)/sqrt(2), then i(E_ij - E_ji)/sqrt(2)."""
    def unit(i, j):
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        return e

    pairs = list(zip(*np.triu_indices(n, 1)))
    return (
        [unit(k, k) for k in range(n)]
        + [(unit(i, j) + unit(j, i)) / np.sqrt(2.0) for i, j in pairs]
        + [1j * (unit(i, j) - unit(j, i)) / np.sqrt(2.0) for i, j in pairs]
    )


class TestHermitianBasis:
    def test_members_in_documented_order(self):
        n = 3
        members = hermitian_basis(n)
        coordinates = to_hermitian_basis(np.stack(members))
        assert np.abs(coordinates - np.eye(n * n)).max() <= 1e-15
        for b in members:
            assert np.array_equal(b, b.conj().T)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_coordinates_are_traces_with_the_members(self, rng, n):
        x = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
        expected = np.einsum("kab,...ba->...k", np.stack(hermitian_basis(n)), x)  # Tr(B x)
        r = to_hermitian_basis(x)
        assert r.shape == (2, 3, n * n)
        assert np.linalg.norm(r - expected) <= 1e-15 * np.linalg.norm(expected)
        back = from_hermitian_basis(r)
        assert back.shape == x.shape
        assert np.linalg.norm(back - x) <= 1e-15 * np.linalg.norm(x)

    def test_coordinates_of_a_hermitian_matrix(self, rng):
        rho = random_hermitian(rng, 4)
        r = to_hermitian_basis(rho)
        assert not r.imag.any()
        upper = rho[np.triu_indices(4, 1)]
        expected = np.concatenate([np.diag(rho).real, np.sqrt(2) * upper.real, np.sqrt(2) * upper.imag])
        assert np.abs(r.real - expected).max() <= 1e-14
        back = from_hermitian_basis(r.real)
        assert np.array_equal(back, back.conj().T)
        assert np.abs(back - rho).max() <= 1e-15

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), n_jumps=st.integers(0, 2))
    def test_unitary_and_real_generator(self, seed, n, n_jumps):
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
        ra, rb = to_hermitian_basis(a), to_hermitian_basis(b)
        assert np.abs(from_hermitian_basis(ra) - a).max() <= 1e-14 * np.abs(a).max()
        assert abs(np.vdot(ra, rb) - hs_inner(a, b)) <= 1e-13 * np.linalg.norm(a) * np.linalg.norm(b)
        superop = build_superoperator(random_model(rng, n, n_jumps=n_jumps))
        r = hermitian_matrix(superop)
        assert r.dtype == float
        values = eigvals(r)
        assert multiset_close(values, scipy.linalg.eigvals(superop.matrix), 1e-9)
        # a real matrix has its complex eigenvalues in exact conjugate pairs
        assert np.array_equal(np.sort_complex(values), np.sort_complex(values.conj()))

    def test_hand_built_and_replaced_superoperators_are_real(self, rng):
        # realness is read off the matrix, not off the function that made it
        superop = build_superoperator(random_model(rng, 4, n_jumps=2))
        expected = hermitian_matrix(superop)
        assert expected.dtype == np.float64
        for other in (Superoperator(4, superop.matrix), dataclasses.replace(superop)):
            r = hermitian_matrix(other)
            assert r.dtype == np.float64 and np.array_equal(r, expected)
            values = spectrum(other).eigenvalues
            assert np.array_equal(np.sort_complex(values), np.sort_complex(values.conj()))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 2, 3, 3, 4, 5, 8, 16]),
        n_jumps=st.integers(0, 3),
        h_exponent=st.floats(-3.0, 3.0),
        rate_exponents=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    )
    def test_generators_near_the_hermiticity_limit_stay_real(
        self, seed, n, n_jumps, h_exponent, rate_exponents
    ):
        # H Hermitian only to 0.98 HERMITICITY_RTOL: -i(H_eff rho - rho H_eff^H) still
        # preserves Hermiticity, so U S U^H is real up to round-off
        rng = np.random.default_rng(seed)
        h = 10.0**h_exponent * random_hermitian(rng, n)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        skew = g - g.conj().T  # the defect H - H^H of H + c skew is 2 c skew
        h = h + (0.49 * HERMITICITY_RTOL * np.linalg.norm(h) / np.linalg.norm(skew)) * skew
        jumps = tuple(
            (10.0**e, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            for e in rate_exponents[:n_jumps]
        )
        model = LindbladModel(h, jumps)
        assert np.linalg.norm(h - h.conj().T) >= 0.97 * HERMITICITY_RTOL * np.linalg.norm(h)
        assert hermitian_matrix(build_superoperator(model)).dtype == np.float64

    def test_hand_built_non_hermiticity_preserving_superoperator(self, rng):
        n = 3
        matrix = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
        superop = Superoperator(n, matrix)
        assert np.iscomplexobj(hermitian_matrix(superop))
        expected = scipy.linalg.eigvals(matrix)
        assert not multiset_close(expected, expected.conj(), 1e-3)
        dec = spectrum(superop)
        assert multiset_close(dec.eigenvalues, expected, 1e-10)
        vectors = dec.right_eigenvectors  # Hermitian-basis coordinates
        residuals = np.linalg.norm(
            hermitian_matrix(superop) @ vectors - vectors * dec.eigenvalues, axis=0
        )
        assert residuals.max() <= 1e-10 * np.linalg.norm(matrix)
        assert np.allclose(residuals, dec.residual_norms, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_dense_propagation_matches_per_time_exponential(self, rng, n):
        model = random_model(rng, n, n_jumps=2)
        rho0 = random_density(rng, n).matrix
        rho0 = 0.5 * (rho0 + rho0.conj().T)  # exactly Hermitian
        assert not to_hermitian_basis(rho0).imag.any()  # the real path
        superop = build_superoperator(model)
        matrix = superop.matrix
        times = [0.0, 0.3, 0.3, 1.7, 5.0]
        for t, state in zip(times, propagate(superop, rho0, times)):
            expected = scipy.linalg.expm(matrix * t) @ vec(rho0)
            assert np.linalg.norm(vec(state.matrix) - expected) <= 1e-10 * np.linalg.norm(expected)
            assert np.array_equal(state.matrix, state.matrix.conj().T)
