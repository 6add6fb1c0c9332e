import csv
import io

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbladmv.cli import main
from lindbladmv.errors import DependentBasisError, NotClosedError, ValidationError
from lindbladmv.heisenberg import (
    _adjoint_partners,
    _member_values,
    adjoint_spectrum,
    close_set,
    expectations,
    propagate_expectations,
)
from lindbladmv.model import (
    LindbladModel,
    apply_adjoint,
    random_density,
    random_model,
    to_hermitian_basis,
)
from lindbladmv.modelio import load_observables, save_model, save_observables, save_state
from lindbladmv.tls import (
    EXCITED,
    GROUND,
    IDENTITY,
    S_MINUS,
    S_PLUS,
    SX,
    SY,
    SZ,
    TLSParams,
    build_tls,
)
from lindbladmv.vectorized import build_superoperator, propagate, spectrum, unvec, vec

from conftest import ep_params, multiset_close, pauli_set, submultiset_close, tls_adjoint_golden


def matrix_units(n):
    units = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    return units


class TestCloseSet:
    def test_tls_golden(self):
        delta, eps, gamma = 0.7, 1.3, 0.9
        rep = close_set(build_tls(TLSParams(delta, eps, gamma)), pauli_set())
        assert np.allclose(rep.coeffs, tls_adjoint_golden(delta, eps, gamma), atol=1e-13)
        assert rep.closure_residuals.max() <= 1e-10

    def test_trivial_model_gives_zero(self, rng):
        model = LindbladModel(np.zeros((2, 2)))
        rep = close_set(model, pauli_set())
        assert np.array_equal(rep.coeffs, np.zeros((4, 4)))

    def test_not_closed_reports_offender(self):
        model = build_tls(TLSParams(0.9, 0.4, 0.5))
        with pytest.raises(NotClosedError) as excinfo:
            close_set(model, [SX])
        assert excinfo.value.index == 0
        assert excinfo.value.residual > 0.1

    def test_dependent_basis_rejected(self):
        model = build_tls(TLSParams(0.0, 1.0, 1.0))
        with pytest.raises(DependentBasisError):
            close_set(model, [SX, SX + 1e-15 * SY])

    def test_identity_row_is_zero(self, rng):
        model = random_model(rng, 2, n_jumps=2)
        rep = close_set(model, pauli_set())
        assert np.abs(rep.coeffs[3]).max() <= 1e-12

    def test_undriven_two_operator_closure(self):
        gamma = 0.8
        rep = close_set(build_tls(TLSParams(0.0, 0.0, gamma)), [SZ, IDENTITY])
        assert np.allclose(
            rep.coeffs, [[-gamma, -gamma / 2.0], [0.0, 0.0]], atol=1e-13
        )

    def test_matrix_unit_basis_always_closes(self, rng):
        for n in (2, 3):
            model = random_model(rng, n, n_jumps=2)
            rep = close_set(model, matrix_units(n))
            assert rep.size == n * n

    @pytest.mark.parametrize("seed, n", [(7, 16), (0, 4), (1, 3), (2, 8)])
    def test_identity_fixed_point_closes(self, tmp_path, capsys, seed, n):
        # L^dag(I) = 0 exactly, so its computed image is pure round-off
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, n_jumps=2)
        rep = close_set(model, [np.eye(n)])
        assert np.abs(rep.coeffs).max() <= 1e-12

        paths = [tmp_path / name for name in ("model.json", "state.json", "obs.json")]
        save_model(paths[0], model)
        save_state(paths[1], random_density(rng, n).matrix)
        save_observables(paths[2], [("I", np.eye(n))])
        argv = ["propagate", str(paths[0]), "--state", str(paths[1]), "--observables",
                str(paths[2]), "--t1", "5", "--steps", "3", "--method", "heisenberg"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert all(float(row["I_re"]) == pytest.approx(1.0, abs=1e-12) for row in rows)

    def test_closure_residual_invariant(self, rng):
        from lindbladmv.model import apply_adjoint

        model = random_model(rng, 2)
        rep = close_set(model, pauli_set())
        for k, x in enumerate(rep.basis):
            image = apply_adjoint(model, x)
            expansion = sum(c * b for c, b in zip(rep.coeffs[k], rep.basis))
            assert np.linalg.norm(image - expansion) <= rep.closure_residuals[k] + 1e-14


class TestRealRoute:
    """Sets that hold the conjugate transpose of each member get a real generator."""

    def test_adjoint_closed_sets_give_a_real_generator(self, rng):
        model = random_model(rng, 3, n_jumps=2)
        for basis in (pauli_set(), matrix_units(3), [S_MINUS, S_PLUS]):
            system = model if len(basis) == 9 else build_tls(TLSParams(0.0, 0.0, 0.8))
            rep = close_set(system, basis)
            assert rep.generator.dtype == np.float64

    def test_matrix_unit_coeffs_are_the_adjoint_on_the_units(self, rng):
        model = random_model(rng, 3, n_jumps=2)
        units = matrix_units(3)
        rep = close_set(model, units)
        # the units are orthonormal: coeffs[k, j] = Tr(E_j^dag L^dag(E_k))
        expected = [[np.vdot(e, apply_adjoint(model, x)) for e in units] for x in units]
        assert np.abs(rep.coeffs - expected).max() <= 1e-13
        assert rep.closure_residuals.max() <= 1e-13

    def test_lowering_and_raising_on_undriven_tls(self):
        delta, gamma = 0.3, 0.8
        rep = close_set(build_tls(TLSParams(delta, 0.0, gamma)), [S_MINUS, S_PLUS])
        assert rep.generator.dtype == np.float64
        expected = np.diag([-gamma / 2 - 1j * delta, -gamma / 2 + 1j * delta])
        assert np.abs(rep.coeffs - expected).max() <= 1e-14
        values = np.sort_complex(adjoint_spectrum(rep).eigenvalues)
        assert np.array_equal(values, np.sort_complex(values.conj()))  # an exact pair

    def test_partner_indexes_each_members_adjoint(self, rng):
        undriven = build_tls(TLSParams(0.3, 0.0, 0.8))
        assert close_set(undriven, [S_MINUS, S_PLUS]).partner.tolist() == [1, 0]
        assert close_set(undriven, [S_MINUS]).partner.tolist() == [0]
        assert close_set(undriven, pauli_set()).partner.tolist() == [0, 1, 2, 3]
        rep = close_set(random_model(rng, 3, n_jumps=2), matrix_units(3))
        assert rep.partner.tolist() == [3 * (k % 3) + k // 3 for k in range(9)]

    def test_hermitian_members_are_the_rows(self, rng):
        for model in (build_tls(TLSParams(1.0, 2.0, 1.0)), random_model(rng, 2, n_jumps=2)):
            rep = close_set(model, pauli_set())
            assert np.array_equal(rep.coeffs, rep.generator)

    def test_mixed_eigenvectors_are_those_of_coeffs(self, rng):
        cases = [(random_model(rng, 3, n_jumps=2), matrix_units(3)),
                 (build_tls(TLSParams(0.7, 1.3, 0.9)), pauli_set())]
        for model, basis in cases:
            rep = close_set(model, basis)
            decomposition = adjoint_spectrum(rep)
            vectors = _member_values(decomposition.right_eigenvectors.T, rep.partner).T
            residual = rep.coeffs @ vectors - vectors * decomposition.eigenvalues
            assert np.abs(residual).max() <= 1e-12

    def test_lowering_alone_takes_the_complex_route(self):
        delta, gamma = 0.3, 0.8
        rep = close_set(build_tls(TLSParams(delta, 0.0, gamma)), [S_MINUS])
        assert rep.generator.dtype == np.complex128
        assert np.abs(rep.coeffs - [[-gamma / 2 - 1j * delta]]).max() <= 1e-14

    @pytest.mark.parametrize("signed_zero", [False, True])
    def test_matrix_units_read_from_json_take_the_real_route(self, tmp_path, rng, signed_zero):
        # conj turns +0.0 into -0.0, so members are compared by value, not by their bits
        units = [u.conj() if signed_zero else u for u in matrix_units(3)]
        path = tmp_path / "units.json"
        save_observables(path, [(f"e{k}", u) for k, u in enumerate(units)])
        loaded = [m for _, m in load_observables(path)]
        assert _adjoint_partners(to_hermitian_basis(np.stack(loaded))) is not None
        rep = close_set(random_model(rng, 3, n_jumps=2), loaded)
        assert rep.generator.dtype == np.float64

    def test_near_dependent_set_rejected_on_the_real_route(self):
        basis = [SX, SY, SX + 1e-9 * SY]
        assert _adjoint_partners(to_hermitian_basis(np.stack(basis))) is not None
        with pytest.raises(DependentBasisError):
            close_set(build_tls(TLSParams(0.0, 1.0, 1.0)), basis)

    def test_repeated_member_rejected(self):
        model = build_tls(TLSParams(0.3, 0.0, 0.8))
        for basis in ([S_MINUS, S_PLUS, S_MINUS], [SX, SX], [SX, SY, SZ, IDENTITY, SZ]):
            with pytest.raises(DependentBasisError):
                close_set(model, basis)

    def test_pair_members_share_their_residual(self):
        # on a driven model (S-, S+) is not closed: both leave the span by the same amount
        model = build_tls(TLSParams(0.3, 0.7, 0.8))
        with pytest.raises(NotClosedError) as excinfo:
            close_set(model, [S_MINUS, S_PLUS])
        image = apply_adjoint(model, S_MINUS)
        # the span of {S-, S+} is the off-diagonal matrices; what is left is the diagonal
        outside = np.linalg.norm(np.diag(np.diag(image))) / np.linalg.norm(image)
        assert excinfo.value.index == 0
        assert excinfo.value.residual == pytest.approx(outside, rel=1e-12)


class TestExpectations:
    def test_identity(self, rng):
        rho = random_density(rng, 2)
        assert np.allclose(expectations([IDENTITY], rho), [1.0], atol=1e-14)

    def test_excited_population_readout(self):
        assert expectations([SZ], EXCITED)[0] == pytest.approx(0.5)

    def test_maximally_mixed(self):
        values = expectations(pauli_set(), np.eye(2) / 2.0)
        assert np.allclose(values, [0.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            expectations([np.eye(3)], random_density(rng, 2))


class TestPropagateExpectations:
    def test_time_zero(self, rng):
        model = random_model(rng, 2)
        rep = close_set(model, matrix_units(2))
        initial = expectations(rep.basis, random_density(rng, 2))
        out = propagate_expectations(rep, initial, [0.0])
        assert np.allclose(out[0], initial, atol=1e-14)

    def test_undriven_decay_analytic(self):
        gamma = 0.8
        rep = close_set(build_tls(TLSParams(0.0, 0.0, gamma)), [SZ, IDENTITY])
        initial = expectations(rep.basis, EXCITED)
        times = [0.0, 0.5, 1.0, 2.0, 5.0]
        trajectory = propagate_expectations(rep, initial, times)
        for t, row in zip(times, trajectory):
            assert row[0].real == pytest.approx(np.exp(-gamma * t) - 0.5, abs=1e-12)
            assert row[1].real == pytest.approx(1.0, abs=1e-12)

    def test_identity_component_constant(self, rng):
        model = random_model(rng, 2)
        rep = close_set(model, pauli_set())
        initial = expectations(rep.basis, random_density(rng, 2))
        trajectory = propagate_expectations(rep, initial, [0.0, 0.7, 2.1])
        assert np.allclose(trajectory[:, 3], initial[3], atol=1e-12)

    def test_picture_equivalence(self, rng):
        for n in (2, 3):
            model = random_model(rng, n, n_jumps=2)
            basis = matrix_units(n)
            rep = close_set(model, basis)
            rho0 = random_density(rng, n)
            superop = build_superoperator(model)
            scale = np.linalg.norm(superop.matrix, 2)
            times = np.linspace(0.0, 10.0 / scale, 7)
            heis = propagate_expectations(rep, expectations(basis, rho0), times)
            schro = propagate(superop, rho0, times)
            for row, state in zip(heis, schro):
                direct = np.array([np.trace(x @ state.matrix) for x in basis])
                assert np.abs(row - direct).max() <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        n_jumps=st.integers(0, 2),
        times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6).map(
            lambda ts: sorted(ts + ts[:1])
        ),
    )
    def test_matrix_unit_trajectory_matches_dense_exponential(self, seed, n, n_jumps, times):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, n_jumps=n_jumps)
        rho0 = random_density(rng, n)
        basis = matrix_units(n)
        rep = close_set(model, basis)
        trajectory = propagate_expectations(rep, expectations(basis, rho0), times)
        matrix = build_superoperator(model).matrix
        for t, row in zip(times, trajectory):
            rho = unvec(scipy.linalg.expm(matrix * t) @ vec(rho0.matrix), n)
            assert np.abs(row - expectations(basis, rho)).max() <= 1e-9

    def test_identity_reads_exactly_one(self):
        rep = close_set(build_tls(TLSParams(1.0, 2.0, 1.0)), pauli_set())
        initial = expectations(rep.basis, GROUND)
        trajectory = propagate_expectations(rep, initial, np.linspace(0.0, 5.0, 21))
        assert (trajectory[:, 3] == 1.0).all()

    @pytest.mark.parametrize("case", ["lowering-raising", "matrix-units"])
    def test_complex_initial_follows_the_coefficient_matrix(self, rng, case):
        # any complex vector, not only the values of a state, steps by exp(coeffs t)
        if case == "lowering-raising":
            model, basis = build_tls(TLSParams(0.3, 0.0, 0.8)), [S_MINUS, S_PLUS]
        else:
            model, basis = random_model(rng, 3, n_jumps=2), matrix_units(3)
        rep = close_set(model, basis)
        initial = rng.normal(size=rep.size) + 1j * rng.normal(size=rep.size)
        times = [0.0, 0.4, 1.3, 3.0]
        trajectory = propagate_expectations(rep, initial, times)
        for t, row in zip(times, trajectory):
            expected = scipy.linalg.expm(rep.coeffs * t) @ initial
            assert np.linalg.norm(row - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_non_orthogonal_hermitian_set_matches_schroedinger(self, rng):
        basis = [IDENTITY, SX + SZ, SY, SZ + 0.3 * IDENTITY]
        for model in (build_tls(TLSParams(0.7, 1.3, 0.9)), random_model(rng, 2, n_jumps=2)):
            rep = close_set(model, basis)
            rho0 = random_density(rng, 2)
            times = np.linspace(0.0, 4.0, 9)
            heis = propagate_expectations(rep, expectations(basis, rho0), times)
            states = propagate(build_superoperator(model), rho0, times)
            schro = expectations(basis, np.stack([state.matrix for state in states]))
            assert np.abs(heis - schro).max() <= 1e-12

    def test_hermitian_members_stay_real(self, rng):
        model = random_model(rng, 2)
        rep = close_set(model, pauli_set())
        initial = expectations(rep.basis, random_density(rng, 2))
        trajectory = propagate_expectations(rep, initial, np.linspace(0, 2, 5))
        assert np.abs(trajectory.imag).max() <= 1e-10


class TestAdjointSpectrum:
    def test_full_basis_conjugates_match_everything(self):
        model = build_tls(TLSParams(0.7, 1.3, 0.9))
        rep = close_set(model, pauli_set())
        conj_values = np.conj(adjoint_spectrum(rep).eigenvalues)
        full = spectrum(build_superoperator(model)).eigenvalues
        assert multiset_close(conj_values, full, 1e-8)

    def test_conjugate_subset_over_parameter_scan(self, rng):
        for _ in range(50):
            delta, eps = rng.uniform(0.0, 2.0, size=2)
            gamma = float(1.0 - rng.uniform(0.0, 1.0))
            model = build_tls(TLSParams(delta, eps, gamma))
            rep = close_set(model, pauli_set())
            conj_values = np.conj(adjoint_spectrum(rep).eigenvalues)
            full = spectrum(build_superoperator(model)).eigenvalues
            assert submultiset_close(conj_values, full, 1e-8)

    def test_subset_with_partial_basis(self):
        gamma = 0.8
        model = build_tls(TLSParams(0.0, 0.0, gamma))
        rep = close_set(model, [SZ, IDENTITY])
        conj_values = np.conj(adjoint_spectrum(rep).eigenvalues)
        full = spectrum(build_superoperator(model)).eigenvalues
        assert submultiset_close(conj_values, full, 1e-10)
        assert len(conj_values) == 2

    def test_zero_model(self):
        rep = close_set(LindbladModel(np.zeros((2, 2))), pauli_set())
        assert np.allclose(adjoint_spectrum(rep).eigenvalues, 0.0)

    def test_exceptional_point_cluster(self):
        delta, eps, gamma = ep_params()
        rep = close_set(build_tls(TLSParams(delta, eps, gamma)), pauli_set())
        values = np.conj(adjoint_spectrum(rep).eigenvalues)
        assert multiset_close(values, [0.0, -2 / 3, -2 / 3, -2 / 3], 1e-4 * gamma)
