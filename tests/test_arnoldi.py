import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbladmv.arnoldi import (
    arnoldi_reduce,
    propagate_reduced,
    ritz_values,
)
from lindbladmv.errors import ValidationError
from lindbladmv.linalg import ACTION_RTOL, GROWTH_CHECK, hs_inner, hs_norm
from lindbladmv.model import (
    LindbladModel,
    apply_generator,
    from_hermitian_basis,
    random_density,
    random_model,
)
from lindbladmv.tls import GROUND, TLSParams, build_tls
from lindbladmv.vectorized import build_superoperator, propagate, spectrum, unvec, vec

from conftest import benchmark_model, ep_params, multiset_close, tls_hessenberg_golden


def tls_krylov_basis(delta, eps, gamma):
    """Closed-form Gram-Schmidt basis from the ground state (delta, eps > 0)."""
    omega = np.sqrt(2.0 * delta**2 + eps**2)
    rt2 = np.sqrt(2.0)
    return [
        GROUND,
        (1.0 / rt2) * np.array([[0.0, -1.0j], [1.0j, 0.0]]),
        (1.0 / omega) * np.array([[eps, -delta], [-delta, 0.0]], dtype=complex),
        (-1.0 / (rt2 * omega)) * np.array([[2.0 * delta, eps], [eps, 0.0]], dtype=complex),
    ]


class TestReduce:
    def test_tls_hessenberg_golden(self):
        delta, eps, gamma = 0.7, 1.3, 0.9
        reduction = arnoldi_reduce(build_tls(TLSParams(delta, eps, gamma)), GROUND, 3)
        assert reduction.breakdown_at is None
        assert np.allclose(reduction.hessenberg, tls_hessenberg_golden(delta, eps, gamma), atol=1e-13)

    def test_tls_basis(self):
        delta, eps, gamma = 0.7, 1.3, 0.9
        reduction = arnoldi_reduce(build_tls(TLSParams(delta, eps, gamma)), GROUND, 3)
        for computed, expected in zip(reduction.basis, tls_krylov_basis(delta, eps, gamma)):
            assert np.allclose(computed, expected, atol=1e-13)

    def test_stationary_start_breaks_down_immediately(self, rng):
        model = LindbladModel(np.zeros((2, 2)))
        rho0 = random_density(rng, 2)
        reduction = arnoldi_reduce(model, rho0, 3)
        assert reduction.breakdown_at == 0
        assert reduction.hessenberg.shape == (1, 1)
        assert reduction.hessenberg[0, 0] == 0.0

    def test_invariant_subspace_breakdown(self):
        # populations decouple from coherences when there is no drive, so the
        # reachable space from a diagonal state is two-dimensional
        model = build_tls(TLSParams(0.0, 0.0, 1.0))
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        reduction = arnoldi_reduce(model, rho0, 3)
        assert reduction.breakdown_at == 1
        assert reduction.hessenberg.shape == (2, 2)

    def test_zero_state_rejected(self):
        model = build_tls(TLSParams(0.0, 0.0, 1.0))
        with pytest.raises(ValidationError):
            arnoldi_reduce(model, np.zeros((2, 2)), 2)

    def test_dimension_cap(self, rng):
        model = random_model(rng, 2)
        with pytest.raises(ValidationError):
            arnoldi_reduce(model, random_density(rng, 2), 4)

    @pytest.mark.parametrize("krylov_dim", [2.5, np.float64(2.0), True])
    def test_krylov_dim_must_be_an_integer(self, krylov_dim):
        model = build_tls(TLSParams(0.3, 0.7, 1.0))
        with pytest.raises(ValidationError, match="krylov_dim"):
            arnoldi_reduce(model, GROUND, krylov_dim)

    def test_numpy_integer_krylov_dim_accepted(self):
        model = build_tls(TLSParams(0.3, 0.7, 1.0))
        reduction = arnoldi_reduce(model, GROUND, np.int64(2))
        assert np.array_equal(reduction.hessenberg, arnoldi_reduce(model, GROUND, 2).hessenberg)

    def test_krylov_dim_defaults_to_the_liouville_dimension(self, rng):
        model = random_model(rng, 3, n_jumps=2)
        rho0 = random_density(rng, 3)
        for horizon in (None, 2.0):
            default = arnoldi_reduce(model, rho0, horizon=horizon)
            full = arnoldi_reduce(model, rho0, 8, horizon)
            assert np.array_equal(default.hessenberg, full.hessenberg)
            assert np.array_equal(default.coordinates, full.coordinates)

    def test_orthonormality_and_structure(self, rng):
        for n in (2, 3, 4):
            model = random_model(rng, n, n_jumps=2)
            rho0 = random_density(rng, n)
            reduction = arnoldi_reduce(model, rho0, n * n - 1)
            size = reduction.size
            gram = np.array(
                [[hs_inner(a, b) for b in reduction.basis] for a in reduction.basis]
            )
            assert np.abs(gram - np.eye(size)).max() <= 1e-10
            hess = reduction.hessenberg
            lower = [abs(hess[i, j]) for j in range(size) for i in range(j + 2, size)]
            assert max(lower, default=0.0) == 0.0

    def test_entries_are_liouville_matrix_elements(self, rng):
        model = random_model(rng, 3)
        rho0 = random_density(rng, 3)
        reduction = arnoldi_reduce(model, rho0, 6)
        hess = reduction.hessenberg
        for j in range(reduction.size):
            image = apply_generator(model, reduction.basis[j])
            for i in range(reduction.size):
                assert abs(hess[i, j] - hs_inner(reduction.basis[i], image)) <= 1e-10

    def test_arnoldi_relation(self, rng):
        for n in (2, 3):
            model = random_model(rng, n)
            rho0 = random_density(rng, n)
            reduction = arnoldi_reduce(model, rho0, n * n - 1)
            hess = reduction.hessenberg
            for j in range(reduction.size - 1):
                image = apply_generator(model, reduction.basis[j])
                expansion = sum(
                    hess[i, j] * reduction.basis[i] for i in range(j + 2)
                )
                assert hs_norm(image - expansion) <= 1e-10 * max(hs_norm(image), 1.0)


class TestHermitianCoordinates:
    def exactly_hermitian_density(self, rng, n):
        rho = random_density(rng, n).matrix
        return 0.5 * (rho + rho.conj().T)

    def test_hermitian_start_gives_real_hessenberg_and_hermitian_basis(self, rng):
        model = random_model(rng, 4, n_jumps=2)
        reduction = arnoldi_reduce(model, self.exactly_hermitian_density(rng, 4), 15)
        assert reduction.hessenberg.dtype == float
        assert reduction.coordinates.dtype == float
        assert np.array_equal(reduction.basis, from_hermitian_basis(reduction.coordinates))
        for matrix in reduction.basis:
            assert np.array_equal(matrix, matrix.conj().T)

    def test_other_start_takes_the_complex_kernel(self, rng):
        model = random_model(rng, 3, n_jumps=2)
        rho0 = self.exactly_hermitian_density(rng, 3)
        nudged = rho0.copy()
        nudged[0, 1] += 1e-15  # Hermitian to round-off only
        real = arnoldi_reduce(model, rho0, 8)
        complex_ = arnoldi_reduce(model, nudged, 8)
        assert np.iscomplexobj(complex_.hessenberg)
        assert np.abs(complex_.hessenberg - real.hessenberg).max() <= 1e-12

    def test_full_reduction_has_exactly_one_zero_ritz_value(self):
        # without projecting each image onto its Hermitian part, round-off opens
        # an anti-Hermitian direction and a second Ritz value appears at zero
        rng = np.random.default_rng(100)
        n = 16
        model = random_model(rng, n, n_jumps=2)
        reduction = arnoldi_reduce(model, self.exactly_hermitian_density(rng, n), n * n - 1)
        assert reduction.size == n * n
        values = ritz_values(reduction).eigenvalues
        assert np.sum(np.abs(values) <= 1e-10) == 1

    def test_trajectory_matches_per_time_exponential(self, rng):
        n = 5
        model = random_model(rng, n, n_jumps=2)
        rho0 = self.exactly_hermitian_density(rng, n)
        reduction = arnoldi_reduce(model, rho0, n * n - 1)
        matrix = build_superoperator(model).matrix
        times = [0.0, 0.25, 1.0, 1.0, 4.5]
        states = propagate_reduced(reduction, times)
        for t, state in zip(times, states):
            expected = scipy.linalg.expm(matrix * t) @ vec(rho0)
            assert np.linalg.norm(vec(state) - expected) <= 1e-10 * np.linalg.norm(expected)


class TestProjectReconstruct:
    """``hs_inner(basis, rho)`` reads the coefficients of ``rho`` on the reduction basis
    and ``np.tensordot(c, basis, 1)`` maps coefficients back to a matrix."""

    def setup_method(self):
        self.model = build_tls(TLSParams(0.7, 1.3, 0.9))
        self.basis = arnoldi_reduce(self.model, GROUND, 3).basis

    def test_basis_elements_map_to_unit_vectors(self):
        coeffs = hs_inner(self.basis, self.basis[0])
        assert np.allclose(coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        coeffs = hs_inner(self.basis, self.basis[2])
        assert np.allclose(coeffs, [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_orthogonal_complement_projects_to_zero(self, rng):
        rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        inside = np.tensordot(hs_inner(self.basis, rho), self.basis, 1)
        outside = rho - inside
        assert np.allclose(hs_inner(self.basis, outside), 0.0, atol=1e-12)

    def test_round_trip_on_coefficients(self, rng):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        back = hs_inner(self.basis, np.tensordot(coeffs, self.basis, 1))
        assert np.abs(back - coeffs).max() <= 1e-12

    def test_span_membership_is_exact(self, rng):
        mix = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = np.tensordot(mix, self.basis, 1)
        again = np.tensordot(hs_inner(self.basis, rho), self.basis, 1)
        assert hs_norm(again - rho) <= 1e-10


class TestPropagateReduced:
    def test_time_zero(self):
        model = build_tls(TLSParams(0.7, 1.3, 0.9))
        reduction = arnoldi_reduce(model, GROUND, 3)
        assert np.allclose(propagate_reduced(reduction, [0.0])[0], reduction.basis[0], atol=1e-14)

    def test_full_span_matches_vectorized(self, rng):
        model = build_tls(TLSParams(0.7, 1.3, 0.9))
        superop = build_superoperator(model)
        reduction = arnoldi_reduce(model, GROUND, 3)
        for t in (0.3, 1.0 / 0.9, 4.0):
            (expected,) = propagate(superop, GROUND, [t])
            (out,) = propagate_reduced(reduction, [t])
            assert np.linalg.norm(out - expected.matrix) <= 1e-9

    def test_mixed_state_norm_factor(self, rng):
        model = random_model(rng, 2)
        rho0 = random_density(rng, 2)
        superop = build_superoperator(model)
        reduction = arnoldi_reduce(model, rho0, 3)
        (expected,) = propagate(superop, rho0, [0.8])
        out = propagate_reduced(reduction, [0.8])[0]
        assert np.linalg.norm(out - expected.matrix) <= 1e-9

    def test_breakdown_keeps_stationary_state(self, rng):
        model = LindbladModel(np.zeros((2, 2)))
        rho0 = random_density(rng, 2)
        reduction = arnoldi_reduce(model, rho0, 3)
        for t in (0.0, 1.0, 10.0):
            assert np.allclose(propagate_reduced(reduction, [t])[0], rho0.matrix)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        n_jumps=st.integers(0, 2),
        times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6).map(
            lambda ts: sorted(ts + ts[:1])
        ),
    )
    def test_full_reduction_trajectory_matches_dense_exponential(self, seed, n, n_jumps, times):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, n_jumps=n_jumps)
        rho0 = random_density(rng, n)
        reduction = arnoldi_reduce(model, rho0, n * n - 1)
        states = propagate_reduced(reduction, times)
        matrix = build_superoperator(model).matrix
        for t, state in zip(times, states):
            expected = unvec(scipy.linalg.expm(matrix * t) @ vec(rho0.matrix), n)
            assert np.abs(state - expected).max() <= 1e-9

    def test_grid_rows_match_single_time_calls(self, rng):
        model = random_model(rng, 3, n_jumps=2)
        reduction = arnoldi_reduce(model, random_density(rng, 3), 8)
        times = [0.0, 0.4, 0.4, 1.1, 3.0]
        states = propagate_reduced(reduction, times)
        assert states.shape == (len(times), 3, 3)
        for t, state in zip(times, states):
            (single,) = propagate_reduced(reduction, [t])
            assert np.abs(state - single).max() <= 1e-12

    def test_negative_time_rejected(self):
        model = build_tls(TLSParams(0.0, 1.0, 1.0))
        reduction = arnoldi_reduce(model, GROUND, 3)
        with pytest.raises(ValidationError):
            propagate_reduced(reduction, [-0.1])

    def test_error_decreases_with_krylov_dimension(self):
        # statistical property: the truncation error is non-increasing in the
        # reduction size; checked on medians over 20 random 4-level models
        rng = np.random.default_rng(7)
        dims = (3, 5, 7, 9)
        errors = {k: [] for k in dims}
        for _ in range(20):
            model = random_model(rng, 4)
            rho0 = random_density(rng, 4)
            superop = build_superoperator(model)
            t = 1.0 / np.linalg.norm(superop.matrix, 2)
            (reference,) = propagate(superop, rho0, [t])
            for k in dims:
                reduction = arnoldi_reduce(model, rho0, k)
                approx = propagate_reduced(reduction, [t])[0]
                errors[k].append(np.linalg.norm(approx - reference.matrix))
        medians = [np.median(errors[k]) for k in dims]
        assert all(b < a for a, b in zip(medians, medians[1:]))
        full = []
        for _ in range(5):
            model = random_model(rng, 4)
            rho0 = random_density(rng, 4)
            superop = build_superoperator(model)
            t = 1.0 / np.linalg.norm(superop.matrix, 2)
            (reference,) = propagate(superop, rho0, [t])
            reduction = arnoldi_reduce(model, rho0, 15)
            approx = propagate_reduced(reduction, [t])[0]
            full.append(np.linalg.norm(approx - reference.matrix))
        assert max(full) <= 1e-9


class TestHorizon:
    def test_n16_reduction_stops_at_a_growth_check_where_the_estimate_passes(self, rng):
        n = 16
        model = benchmark_model(rng, n)
        rho0 = random_density(rng, n)
        reduction = arnoldi_reduce(model, rho0, n * n - 1, 5.0)
        assert reduction.size < n * n and reduction.size % GROWTH_CHECK == 0
        assert reduction.breakdown_at is None and reduction.estimate <= ACTION_RTOL
        # the stop only truncates: the reduction is the leading part of the full one, bit for bit
        full = arnoldi_reduce(model, rho0, n * n - 1)
        k = reduction.size
        assert np.array_equal(reduction.hessenberg, full.hessenberg[:k, :k])
        assert np.array_equal(reduction.coordinates, full.coordinates[:k])
        times = np.linspace(0.0, 5.0, 21)
        assert np.abs(propagate_reduced(reduction, times) - propagate_reduced(full, times)).max() <= 1e-13

    def test_one_check_short_of_the_stop_misses_the_budget(self, rng):
        n = 16
        model = benchmark_model(rng, n)
        rho0 = random_density(rng, n)
        k = arnoldi_reduce(model, rho0, n * n - 1, 5.0).size
        capped = arnoldi_reduce(model, rho0, k - GROWTH_CHECK - 1, 5.0)
        assert capped.size == k - GROWTH_CHECK and capped.estimate > ACTION_RTOL

    def test_breakdown_estimate_is_zero_and_takes_no_exponential(self, rng, monkeypatch):
        calls, original = [], scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or original(a))
        full = arnoldi_reduce(build_tls(TLSParams(0.7, 1.3, 0.9)), GROUND, 3, 5.0)
        stationary = arnoldi_reduce(LindbladModel(np.zeros((2, 2))), random_density(rng, 2), 3, 5.0)
        assert full.estimate == 0.0 and full.size == 4
        assert stationary.estimate == 0.0 and stationary.breakdown_at == 0
        assert calls == []

    @pytest.mark.parametrize("horizon", [-1.0, np.inf, np.nan, True, "5", 1j])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValidationError, match="horizon"):
            arnoldi_reduce(build_tls(TLSParams(0.3, 0.7, 1.0)), GROUND, 3, horizon)


class TestRitzValues:
    def test_full_span_matches_spectrum(self):
        model = build_tls(TLSParams(0.7, 1.3, 0.9))
        full = spectrum(build_superoperator(model)).eigenvalues
        ritz = ritz_values(arnoldi_reduce(model, GROUND, 3)).eigenvalues
        assert multiset_close(ritz, full, 1e-8)

    def test_exceptional_point_cluster(self):
        delta, eps, gamma = ep_params()
        model = build_tls(TLSParams(delta, eps, gamma))
        ritz = ritz_values(arnoldi_reduce(model, GROUND, 3)).eigenvalues
        assert multiset_close(ritz, [0.0, -2 / 3, -2 / 3, -2 / 3], 1e-4 * gamma)

    def test_breakdown_spectrum(self, rng):
        model = LindbladModel(np.zeros((2, 2)))
        reduction = arnoldi_reduce(model, random_density(rng, 2), 3)
        assert np.array_equal(ritz_values(reduction).eigenvalues, [0.0])
