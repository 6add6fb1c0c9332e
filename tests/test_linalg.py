import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbladmv.errors import ConvergenceError, EigenSolverError, ExpOverflowError, ValidationError
from lindbladmv.linalg import (
    ACTION_RTOL,
    BREAKDOWN_RTOL,
    _estimate,
    arnoldi_iteration,
    as_times,
    eig,
    eigvals,
    expm,
    expm_action,
    hs_inner,
    hs_norm,
    propagate_linear,
)
from lindbladmv.model import random_density, random_model
from lindbladmv.tls import GROUND, IDENTITY, SX, SY, SZ
from lindbladmv.vectorized import (
    build_superoperator,
    from_hermitian_basis,
    hermitian_matrix,
    propagate,
    to_hermitian_basis,
    vec,
)
from lindbladmv.tls import TLSParams, build_tls

from conftest import ep_params, multiset_close


class TestKron:
    def test_commutator_structure(self):
        # left-minus-right multiplication by Sz acting on column-stacked
        # 2x2 matrices: the ge coherence picks up -1, the eg coherence +1
        out = np.kron(IDENTITY, SZ) - np.kron(SZ.T, IDENTITY)
        assert np.allclose(out, np.diag([0.0, -1.0, 1.0, 0.0]), atol=1e-15)


class TestHSInner:
    def test_identity(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_orthogonality(self):
        assert abs(hs_inner(SX, SY)) < 1e-15

    def test_self_inner(self):
        assert hs_inner(SX, SX) == pytest.approx(0.5)

    def test_norm_real_nonnegative(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        norm = hs_norm(a)
        assert norm >= 0.0
        assert norm == pytest.approx(np.sqrt(hs_inner(a, a).real))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            hs_inner(np.eye(2), np.eye(3))

    def test_stacks_match_scalar_loop(self, rng):
        a = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        b = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        loop = np.array([[hs_inner(x, y) for y in b] for x in a])
        assert np.allclose(hs_inner(a, b), loop, rtol=1e-14, atol=1e-14)
        assert np.allclose(hs_inner(a, b[0]), loop[:, 0], rtol=1e-14, atol=1e-14)
        assert np.allclose(hs_inner(a[0], b), loop[0], rtol=1e-14, atol=1e-14)
        assert hs_inner(list(a), b).shape == (4, 5)
        assert isinstance(hs_inner(a[0], b[0]), complex)

    def test_stack_shape_mismatch(self):
        with pytest.raises(ValidationError):
            hs_inner(np.zeros((4, 2, 2)), np.eye(3))
        with pytest.raises(ValidationError):
            hs_inner(np.zeros((4, 2, 2)), np.zeros((4, 3, 3)))
        with pytest.raises(ValidationError):
            hs_inner(np.zeros((4, 2, 3)), np.eye(2))
        with pytest.raises(ValidationError):
            hs_inner([np.eye(2), np.eye(3)], np.eye(2))
        with pytest.raises(ValidationError):
            hs_inner(np.zeros((2, 2, 2, 2)), np.eye(2))


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3)), 2.5), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        out = expm(np.diag([1.0, -2.0]), 1.0)
        assert np.allclose(out, np.diag([np.e, np.exp(-2.0)]), rtol=1e-13)

    def test_nilpotent(self):
        out = expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
        assert np.allclose(out, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)

    def test_group_law(self, rng):
        for _ in range(10):
            m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            t, s = rng.uniform(0.0, 1.0, size=2)
            whole = expm(m, t + s)
            split = expm(m, t) @ expm(m, s)
            assert np.linalg.norm(whole - split) <= 1e-10 * np.linalg.norm(whole)

    def test_overflow_reported(self):
        with pytest.raises(ExpOverflowError):
            expm(np.array([[1e4]]), 1e3)

    def test_t_must_be_a_finite_real_scalar(self):
        for t in (np.nan, np.inf, "2", 1j, [1.0, 2.0]):
            with pytest.raises(ValidationError):
                expm(np.eye(2), t)


def check_arnoldi_relation(apply, basis, hess):
    """``A V_k = V_{k+1} H``, orthonormal rows, real non-negative subdiagonal."""
    k = hess.shape[1]
    assert basis.shape[0] == k + 1
    images = np.array([apply(v) for v in basis[:k]])
    scale = np.abs(images).max()
    assert np.abs(images - hess.T @ basis).max() <= 1e-12 * scale
    assert np.abs(basis.conj() @ basis.T - np.eye(k + 1)).max() <= 1e-12
    assert np.array_equal(np.tril(hess, -2), np.zeros_like(hess))
    subdiagonal = np.diagonal(hess, -1)
    assert np.all(subdiagonal.imag == 0.0) and np.all(subdiagonal.real > 0.0)


def block_matrix(rng, head, n):
    """A non-normal ``n x n`` matrix ``s t s^-1`` and its ``s``.

    ``t`` is block upper triangular with ``head`` as its leading block, so
    the first ``len(head)`` columns of ``s`` span an invariant subspace on
    which the matrix acts as ``head``.  The other eigenvalues have real parts
    in ``[-2, -0.5]``.
    """
    block = len(head)
    t = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    t[:block, :block] = head
    rest = np.arange(block, n)
    t[rest, rest] = -rng.uniform(0.5, 2.0, n - block)
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return s @ t @ np.linalg.inv(s), s


#: A slowly decaying rotation, eigenvalues ``-0.02 +- 1j``.
ROTATION = np.array([[-0.02, 1.0], [-1.0, -0.02]])


class TestArnoldiIteration:
    def test_relation_on_random_non_normal_matrix(self, rng):
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        m[np.tril_indices(12, -1)] *= 0.1  # far from normal
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        basis, hess, breakdown_at, _ = arnoldi_iteration(m.dot, v / np.linalg.norm(v), 7)
        assert breakdown_at is None
        assert hess.shape == (8, 7)
        assert np.array_equal(basis[0], v / np.linalg.norm(v))
        check_arnoldi_relation(m.dot, basis, hess)

    def test_relation_on_liouville_operator(self, rng):
        apply = random_model(rng, 3, n_jumps=2).operator.matvec
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        basis, hess, breakdown_at, _ = arnoldi_iteration(apply, v / np.linalg.norm(v), 6)
        assert breakdown_at is None
        check_arnoldi_relation(apply, basis, hess)

    def test_eigenvector_start_breaks_down_at_zero(self, rng):
        m, s = block_matrix(rng, [[-0.02 + 1.0j]], 8)
        v = s[:, 0] / np.linalg.norm(s[:, 0])
        basis, hess, breakdown_at, _ = arnoldi_iteration(m.dot, v, 5)
        assert breakdown_at == 0
        assert basis.shape == (1, 8)
        assert hess.shape == (2, 1)
        assert abs(hess[1, 0]) <= BREAKDOWN_RTOL * np.linalg.norm(m @ v)
        assert abs(hess[0, 0] - np.vdot(v, m @ v)) <= 1e-12 * np.linalg.norm(m @ v)

    def test_two_dimensional_invariant_subspace_breaks_down_at_one(self, rng):
        m, s = block_matrix(rng, ROTATION, 8)
        v = s[:, :2] @ np.array([1.0, 0.5j])
        basis, hess, breakdown_at, _ = arnoldi_iteration(m.dot, v / np.linalg.norm(v), 5)
        assert breakdown_at == 1
        assert basis.shape == (2, 8)
        assert hess.shape == (3, 2)
        images = np.array([m @ b for b in basis])
        assert np.abs(images - hess[:2].T @ basis).max() <= 1e-12 * np.abs(images).max()

    def test_horizon_ends_the_process_at_the_first_passing_check(self, rng, monkeypatch):
        import lindbladmv.linalg as linalg

        m = (rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))) / np.sqrt(80.0)
        v = rng.normal(size=40) + 1j * rng.normal(size=40)
        v /= np.linalg.norm(v)
        full_basis, full_hess, _, estimate = arnoldi_iteration(m.dot, v, 35)
        assert estimate is None  # no horizon, no estimate
        seen = []
        monkeypatch.setattr(linalg, "_estimate", lambda h, t: seen.append(h.shape) or _estimate(h, t))
        basis, hess, breakdown_at, estimate = arnoldi_iteration(m.dot, v, 35, 1.0, 1e-12)
        # read at 10 columns (failing) and at 20 (passing), where the process ends
        assert seen == [(11, 10), (21, 20)]
        assert _estimate(full_hess[:11, :10], 1.0) > 1e-12
        assert estimate == _estimate(full_hess[:21, :20], 1.0) and estimate <= 1e-12
        assert breakdown_at is None and basis.shape == (21, 40) and hess.shape == (21, 20)
        assert np.array_equal(basis, full_basis[:21]) and np.array_equal(hess, full_hess[:21, :20])
        check_arnoldi_relation(m.dot, basis, hess)
        # a budget no check meets runs to k and returns the last estimate read
        seen.clear()
        basis, hess, _, estimate = arnoldi_iteration(m.dot, v, 35, 1.0, 0.0)
        assert seen == [(11, 10), (21, 20), (31, 30)] and hess.shape == (36, 35)
        assert estimate == _estimate(full_hess[:31, :30], 1.0)
        # never at k itself: k = 20 reads only the check at 10
        seen.clear()
        basis, hess, _, estimate = arnoldi_iteration(m.dot, v, 20, 1.0, 1e-12)
        assert seen == [(11, 10)] and hess.shape == (21, 20) and estimate > 1e-12

    def test_zero_operator_breaks_down_at_zero(self):
        basis, hess, breakdown_at, _ = arnoldi_iteration(lambda v: 0.0 * v, np.eye(4)[0], 3)
        assert breakdown_at == 0
        assert np.array_equal(hess, np.zeros((2, 1)))


class TestExpmAction:
    def test_invariant_subspace_start_long_time(self, rng):
        # the Krylov space breaks down at step 1; the whole interval is one
        # substep, accepted by the same error estimate as any other
        m, s = block_matrix(rng, ROTATION, 10)
        v = s[:, :2] @ np.array([0.3, 1.0 - 0.2j])
        calls = []

        class Counted:
            shape = m.shape

            def matvec(self, x):
                calls.append(x)
                return m @ x

        expected = scipy.linalg.expm(50.0 * m) @ v
        out = expm_action(Counted(), v, 50.0)
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)
        assert len(calls) == 2

    def test_invariant_subspace_grid_takes_one_basis(self, rng, monkeypatch):
        import lindbladmv.linalg as linalg

        m, s = block_matrix(rng, ROTATION, 10)
        v = s[:, :2] @ np.array([0.3, 1.0 - 0.2j])
        runs = []
        monkeypatch.setattr(
            linalg, "arnoldi_iteration", lambda *a: runs.append(a) or arnoldi_iteration(*a)
        )
        times = np.linspace(0.0, 50.0, 21)
        out = expm_action(m, v, times)
        assert len(runs) == 1
        for t, y in zip(times, out):
            expected = scipy.linalg.expm(t * m) @ v
            assert np.linalg.norm(y - expected) <= 1e-10 * np.linalg.norm(expected)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        n_jumps=st.integers(0, 2),
        times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6).map(
            lambda ts: sorted([0.0] + ts + ts[:1])
        ),
    )
    def test_grid_matches_dense_exponential(self, seed, n, n_jumps, times):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, n_jumps=n_jumps)
        matrix = build_superoperator(model).matrix
        rho0 = random_density(rng, n).matrix
        out = expm_action(model.operator, to_hermitian_basis(rho0), times)
        assert out.shape == (len(times), n * n)
        for t, y in zip(times, from_hermitian_basis(out)):
            expected = scipy.linalg.expm(t * matrix) @ vec(rho0)
            assert np.linalg.norm(vec(y) - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_scalar_time_is_a_one_point_grid(self, rng):
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)) - 4.0 * np.eye(12)
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        for t in (0.0, 0.7, -0.3, 6.0):
            out = expm_action(m, v, t)
            assert out.shape == (12,)
            expected = scipy.linalg.expm(t * m) @ v
            assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)
        for t in (0.0, 0.7, 6.0):
            assert np.array_equal(expm_action(m, v, [t]), expm_action(m, v, t)[None])

    def test_bad_times_rejected(self):
        for t in (np.nan, np.inf, [0.0, -1.0], [1.0, 0.5], [0.0, np.nan]):
            with pytest.raises(ValidationError):
                expm_action(np.eye(2), np.ones(2), t)

    def test_zero_matrix(self, rng):
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert np.array_equal(expm_action(np.zeros((5, 5)), v, 3.0), v)
        assert np.array_equal(expm_action(np.zeros((5, 5)), v, [0.0, 1.0, 1.0]), np.tile(v, (3, 1)))

    def test_diagonal_decay(self):
        out = expm_action(np.diag([-1.0, -2.0]), np.array([1.0, 1.0]), 1.0)
        assert np.allclose(out, [np.exp(-1.0), np.exp(-2.0)], rtol=1e-12)

    def test_matches_dense_small(self, rng):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        expected = expm(m, 1.0) @ v
        out = expm_action(m, v, 1.0)
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_matches_dense_stable(self, rng, n):
        # stable matrices: shifted to have negative-real-part spectrum
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m -= (np.sqrt(n) + 1.0) * np.eye(n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        expected = expm(m, 1.0) @ v
        out = expm_action(m, v, 1.0)
        assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_time_zero(self, rng):
        m = rng.normal(size=(4, 4))
        v = rng.normal(size=4)
        assert np.array_equal(expm_action(m, v, 0.0), v.astype(complex))
        assert np.array_equal(expm_action(m, v, [0.0, 0.0]), np.tile(v.astype(complex), (2, 1)))

    def test_nonconvergence_reported(self, rng, monkeypatch):
        import lindbladmv.linalg as linalg

        monkeypatch.setattr(linalg, "KRYLOV_CAP", 5)
        monkeypatch.setattr(linalg, "MAX_BASES", 2)
        m = 50.0 * (rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40)))
        v = rng.normal(size=40) + 1j * rng.normal(size=40)
        with pytest.raises(ConvergenceError):
            expm_action(m, v, 1.0)
        with pytest.raises(ConvergenceError):
            expm_action(m, v, [0.0, 0.5, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            expm_action(np.eye(3), np.ones(4), 1.0)

    def test_one_dimensional_basis_steps_instead_of_stalling(self, monkeypatch):
        import lindbladmv.linalg as linalg

        monkeypatch.setattr(linalg, "KRYLOV_CAP", 1)
        monkeypatch.setattr(linalg, "MAX_BASES", 50)
        # the estimate beta h_21 |tau phi_1(tau h_11)| vanishes with the substep
        m, v = -np.diag([1.0, 2.0, 3.0]), np.ones(3)
        for t in (1e-13, [0.0, 5e-13, 1e-12]):
            out = expm_action(m, v, t)
            expected = [scipy.linalg.expm(s * m) @ v for s in np.atleast_1d(t)]
            assert np.abs(out - np.reshape(expected, out.shape)).max() <= 1e-12 * np.linalg.norm(v)
        # every basis starts from a multiple of v, so no step leaves its span
        with pytest.raises(ConvergenceError, match="did not reach"):
            expm_action(m, v, 1.0)

    def test_result_takes_the_type_of_matrix_and_start(self, rng):
        m = rng.normal(size=(10, 10)) - 3.0 * np.eye(10)
        v = rng.normal(size=10)
        for matrix in (m + 1j * rng.normal(size=(10, 10)), m):
            out = expm_action(matrix, v, [0.5, 2.0])
            assert out.dtype == np.result_type(matrix, v)
            for t, y in zip([0.5, 2.0], out):
                expected = scipy.linalg.expm(t * matrix) @ v
                assert np.linalg.norm(y - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_one_budget_for_all_bases(self, monkeypatch):
        import lindbladmv.linalg as linalg

        monkeypatch.setattr(linalg, "KRYLOV_CAP", 1)
        # a one-vector basis has first-order error, so no step meets its share
        with pytest.raises(ConvergenceError, match=r"did not reach t = 1e-08 ") as excinfo:
            expm_action(-np.diag([1.0, 2.0, 3.0]), np.ones(3), 1e-8)
        assert excinfo.value.residual > 1.0  # the failing estimate over its budget
        monkeypatch.setattr(linalg, "KRYLOV_CAP", 10)
        rng = np.random.default_rng(3)
        n = 60
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) - (np.sqrt(n) + 1.0) * np.eye(n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        times = np.linspace(0.0, 1.0, 11)
        out = expm_action(m, v, times)  # about 50 bases
        for t, y in zip(times, out):
            assert np.linalg.norm(y - scipy.linalg.expm(t * m) @ v) <= ACTION_RTOL * np.linalg.norm(v)

    def test_overflowing_trial_steps_are_rejected_quietly(self, monkeypatch):
        import lindbladmv.linalg as linalg

        monkeypatch.setattr(linalg, "KRYLOV_CAP", 10)
        rng = np.random.default_rng(0)
        n = 30
        # stable, but a Ritz value has a positive real part, so exp(1000 aug) overflows
        m = 3.0 * np.triu(rng.normal(size=(n, n)), 1) - 2.0 * np.eye(n)
        v = rng.normal(size=n)
        out = expm_action(m, v, [0.0, 1000.0])
        assert np.array_equal(out[0], v)
        assert np.abs(out[1]).max() <= 1e-100

    @pytest.mark.parametrize("cap, v", [(1, [1.0, 0.0, 0.0]), (2, [1.0, 1.0, 0.0])])
    def test_smallest_krylov_dims_accepted(self, cap, v, monkeypatch):
        import lindbladmv.linalg as linalg

        monkeypatch.setattr(linalg, "KRYLOV_CAP", cap)
        m = -np.diag([1.0, 2.0, 3.0])
        out = expm_action(m, v, 1.0)
        assert np.abs(out - np.exp([-1.0, -2.0, -3.0]) * v).max() <= 1e-14

    def test_empty_grid_gives_no_rows(self, rng):
        model = random_model(rng, 3, n_jumps=2)
        matrix = hermitian_matrix(build_superoperator(model))
        v = rng.normal(size=9)
        for m in (model.operator, matrix):
            assert expm_action(m, v, []).shape == (0, 9)
            assert propagate_linear(m, v, []).shape == (0, 9)


class TestPropagateLinear:
    def test_matches_exponential_at_every_time(self, rng):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) - 3.0 * np.eye(6)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        times = [0.0, 0.2, 0.2, 0.7, 1.2, 1.7, 3.0]
        out = propagate_linear(m, v, times)
        assert out.shape == (len(times), 6)
        for t, y in zip(times, out):
            expected = expm(m, t) @ v
            assert np.linalg.norm(y - expected) <= 1e-12 * max(np.linalg.norm(expected), 1.0)

    def test_operator_steps_by_exponential_action(self, rng):
        model = random_model(rng, 3, n_jumps=2)
        matrix = hermitian_matrix(build_superoperator(model))
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        times = [0.5, 0.5, 1.0, 4.0]
        dense = propagate_linear(matrix, v, times)
        action = propagate_linear(model.operator, v, times)
        assert np.abs(action - dense).max() <= 1e-10 * np.linalg.norm(v)

    def test_uniform_grid_costs_one_exponential(self, rng, monkeypatch):
        calls, original = [], scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or original(a))
        m = rng.normal(size=(4, 4))
        propagate_linear(m, np.ones(4), np.linspace(0.0, 5.0, 21))
        assert len(calls) == 1
        calls.clear()
        propagate_linear(m, np.ones(4), np.linspace(0.3, 5.0, 21))
        assert len(calls) == 2  # the step to t0 and the grid step

    def test_real_system_stays_real(self, rng):
        m = rng.normal(size=(5, 5)) - 2.0 * np.eye(5)
        v = rng.normal(size=5)
        times = [0.0, 0.5, 1.0, 2.5]
        out = propagate_linear(m, v, times)
        assert out.dtype == float
        for t, y in zip(times, out):
            assert np.abs(y - scipy.linalg.expm(m * t) @ v).max() <= 1e-12 * np.abs(v).max()
        assert np.iscomplexobj(propagate_linear(m, v + 0j, times))
        assert np.iscomplexobj(propagate_linear(m + 0j, v, times))

    def test_overflow_reported_at_its_time(self):
        with pytest.raises(ExpOverflowError, match=r"at t = 1\.0$"):
            propagate_linear(np.array([[1e3]]), np.ones(1), [0.0, 0.5, 1.0])

    def test_rejects_bad_times(self):
        for times in ([-1.0], [1.0, 0.5], [0.0, np.nan], [np.inf]):
            with pytest.raises(ValidationError):
                propagate_linear(np.eye(2), np.ones(2), times)
        with pytest.raises(ValidationError):
            propagate_linear(np.eye(2), np.ones(3), [1.0])
        assert as_times([0, 10**20]).tolist() == [0.0, 1e20]  # an int past int64 is still a time

    @pytest.mark.parametrize(
        "times", [True, np.bool_(False), [True], np.array([False, True])], ids=repr
    )
    def test_booleans_are_not_times(self, times):
        # a bool is an int to numpy, so True would be taken as t = 1
        for call in (
            lambda: as_times(times),
            lambda: propagate_linear(np.eye(2), np.ones(2), times),
            lambda: expm_action(np.eye(2), np.ones(2), times),
            lambda: expm(np.eye(2), times),
            lambda: propagate(build_tls(TLSParams(0.3, 0.7, 1.0)), GROUND, times),
        ):
            with pytest.raises(ValidationError, match="booleans"):
                call()


class TestRealArithmetic:
    def test_expm_and_eig_keep_a_real_matrix_real(self, rng):
        m = rng.normal(size=(6, 6))
        assert expm(m).dtype == float
        assert np.abs(expm(m) - scipy.linalg.expm(m)).max() == 0.0
        assert np.iscomplexobj(expm(m.astype(complex)))
        dec = eig(m)
        assert multiset_close(dec.eigenvalues, scipy.linalg.eigvals(m.astype(complex)), 1e-12)
        assert dec.residual_norms.max() <= 1e-12 * np.linalg.norm(m)

    def test_eigvals_are_eigs_values_without_vectors(self, rng):
        for m in (rng.normal(size=(7, 7)), rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))):
            values = eigvals(m)
            assert multiset_close(values, eig(m).eigenvalues, 1e-12)
            keys = [(z.real, z.imag) for z in values]
            assert keys == sorted(keys)

    def test_real_eigenvalues_exact_and_pairs_conjugate(self, rng):
        values = eigvals(rng.normal(size=(9, 9)))
        assert np.array_equal(np.sort_complex(values), np.sort_complex(values.conj()))
        assert np.sum(values.imag == 0.0) % 2 == 1  # an odd order has an odd count of real ones

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_real_eig_matches_the_complex_formulas(self, monkeypatch, seed):
        # a real eigenvalue and conjugate pairs; LAPACK's vectors are perturbed (keeping
        # each pair conjugate) so that the residuals are not round-off and can be compared
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(5, 5))
        original = scipy.linalg.eig

        def perturbed(a, right=True):
            values, vectors = original(a, right=right)
            noise = 1e-3 * (rng.normal(size=vectors.shape) + 1j * rng.normal(size=vectors.shape))
            for j in range(len(values)):
                if values[j].imag == 0:
                    vectors[:, j] += noise[:, j].real
                elif values[j].imag > 0:
                    vectors[:, j] += noise[:, j]
                    vectors[:, j + 1] = vectors[:, j].conj()
            return values, vectors

        monkeypatch.setattr(scipy.linalg, "eig", perturbed)
        dec = eig(m)
        values, vectors = dec.eigenvalues, dec.right_eigenvectors
        assert 0 < np.sum(values.imag == 0.0) < len(values)
        residuals = np.linalg.norm(m @ vectors - vectors * values, axis=0)
        assert residuals.min() > 1e-6
        assert np.allclose(dec.residual_norms, residuals, rtol=1e-12, atol=0.0)
        assert dec.eigenvector_condition == pytest.approx(np.linalg.cond(vectors), rel=1e-12)

    def test_solver_failure_is_eigensolver_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(scipy.linalg, "eig", fail)
        for solver in (eig, eigvals):
            with pytest.raises(EigenSolverError, match="did not converge"):
                solver(np.eye(3))

    def test_arnoldi_iteration_takes_the_dtype_of_its_start(self, rng):
        m = rng.normal(size=(8, 8))
        v0 = rng.normal(size=8)
        basis, hess, _, _ = arnoldi_iteration(m.dot, v0 / np.linalg.norm(v0), 5)
        assert basis.dtype == float and hess.dtype == float
        check_arnoldi_relation(m.dot, basis, hess)
        basis, hess, _, _ = arnoldi_iteration(m.dot, (v0 / np.linalg.norm(v0)).astype(complex), 5)
        assert np.iscomplexobj(basis) and np.iscomplexobj(hess)


class TestEig:
    def test_diagonal(self):
        dec = eig(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])

    def test_sorted_by_real_then_imag(self, rng):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        values = eig(m).eigenvalues
        keys = [(z.real, z.imag) for z in values]
        assert keys == sorted(keys)

    def test_residual_contract(self, rng):
        for _ in range(10):
            m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
            dec = eig(m)
            scale = np.linalg.norm(m)
            assert dec.residual_norms.max() <= 1e-9 * scale
            recomputed = np.linalg.norm(
                m @ dec.right_eigenvectors - dec.right_eigenvectors * dec.eigenvalues,
                axis=0,
            )
            assert np.all(recomputed <= dec.residual_norms + 1e-15)

    def test_undriven_tls_spectrum(self):
        model = build_tls(TLSParams(0.0, 0.0, 1.0))
        dec = eig(build_superoperator(model).matrix)
        assert multiset_close(dec.eigenvalues, [0.0, -1.0, -0.5, -0.5], 1e-12)
        assert dec.eigenvector_condition < 1e3

    def test_exceptional_point_clusters_without_failing(self):
        delta, eps, gamma = ep_params()
        model = build_tls(TLSParams(delta, eps, gamma))
        dec = eig(build_superoperator(model).matrix)
        assert multiset_close(
            dec.eigenvalues, [0.0, -2.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0], 1e-4
        )
        # defectiveness shows up in the eigenvector conditioning, not a failure
        assert dec.eigenvector_condition > 1e8
