import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbladmv.errors import StateValidationError, ValidationError
from lindbladmv.linalg import EPS
from lindbladmv.model import (
    TRACE_RTOL,
    LindbladModel,
    apply_adjoint,
    apply_generator,
    duality_check,
    from_hermitian_basis,
    random_density,
    random_model,
    state_violations,
    to_hermitian_basis,
    validate_state,
)
from lindbladmv.tls import EXCITED, GROUND, IDENTITY, SX, SY, SZ, TLSParams, build_tls
from lindbladmv.vectorized import build_superoperator, hermitian_matrix, unvec, vec

from conftest import random_hermitian


def generator_scale(model):
    return np.linalg.norm(model.hamiltonian) + sum(
        rate * np.linalg.norm(op) ** 2 for rate, op in model.jumps
    )


class TestModelConstruction:
    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ValidationError):
            LindbladModel(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            LindbladModel(np.eye(2), ((-0.5, np.eye(2)),))

    @pytest.mark.parametrize(
        "rate",
        [
            np.nan,
            np.inf,
            pytest.param(10**400, id="huge-int"),
            pytest.param("x", id="str"),
            pytest.param(1j, id="complex"),
            pytest.param(np.complex128(0.5 + 0.5j), id="numpy-complex"),
            pytest.param("0.5", id="numeric-str"),
            pytest.param(True, id="bool"),
        ],
    )
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValidationError, match="jump rate 1 must be finite"):
            LindbladModel(np.eye(2), ((1.0, np.eye(2)), (rate, np.eye(2))))

    def test_jump_that_is_not_a_pair_rejected(self):
        with pytest.raises(ValidationError, match="jump 0 must be a"):
            LindbladModel(np.zeros((3, 3)), (np.eye(3),))

    def test_array_jump_is_not_unpacked_into_its_rows(self):
        # a 2 x 2 array unpacks into two rows, which are no (rate, operator) pair
        with pytest.raises(ValidationError, match=r"jump 0 must be a \(rate, operator\) pair"):
            LindbladModel(np.zeros((2, 2)), (np.eye(2),))

    def test_jump_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LindbladModel(np.eye(2), ((1.0, np.eye(3)),))

    def test_zero_rate_allowed(self):
        model = LindbladModel(np.eye(2), ((0.0, SX),))
        assert model.dim == 2

    def test_tls_commutation_relations(self):
        # the spin constants must satisfy [Si, Sj] = i eps_ijk Sk
        assert np.allclose(SX @ SY - SY @ SX, 1j * SZ, atol=1e-15)
        assert np.allclose(SY @ SZ - SZ @ SY, 1j * SX, atol=1e-15)
        assert np.allclose(SZ @ SX - SX @ SZ, 1j * SY, atol=1e-15)

    def test_negative_decay_rejected(self):
        for decay in (-1.0, np.nan, "x"):
            with pytest.raises(ValidationError):
                TLSParams(0.0, 0.0, decay)


class TestApplyGenerator:
    def test_trivial_model(self, rng):
        model = LindbladModel(np.zeros((3, 3)))
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(apply_generator(model, rho), 0.0, atol=1e-15)

    def test_ground_state_coherence_pumping(self):
        eps, gamma = 1.3, 0.7
        model = build_tls(TLSParams(0.4, eps, gamma))
        out = apply_generator(model, GROUND)
        e_eg = np.array([[0.0, 1.0], [0.0, 0.0]])
        e_ge = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(out, (-0.5j * eps) * (e_eg - e_ge), atol=1e-14)

    def test_undriven_decay(self):
        gamma = 0.9
        model = build_tls(TLSParams(0.0, 0.0, gamma))
        out = apply_generator(model, EXCITED)
        assert np.allclose(out, gamma * (GROUND - EXCITED), atol=1e-15)

    def test_dimension_mismatch(self):
        model = build_tls(TLSParams(0.0, 0.0, 1.0))
        with pytest.raises(ValidationError):
            apply_generator(model, np.eye(3))


class TestApplyAdjoint:
    def test_identity_fixed_point(self, rng):
        for n in (2, 3, 4):
            model = random_model(rng, n, n_jumps=2)
            defect = np.linalg.norm(apply_adjoint(model, np.eye(n)))
            assert defect <= 1e-12 * generator_scale(model)

    def test_sx_image(self):
        delta, eps, gamma = 0.8, 1.1, 0.6
        model = build_tls(TLSParams(delta, eps, gamma))
        out = apply_adjoint(model, SX)
        assert np.allclose(out, -delta * SY - 0.5 * gamma * SX, atol=1e-14)

    def test_sz_image(self):
        delta, eps, gamma = 0.8, 1.1, 0.6
        model = build_tls(TLSParams(delta, eps, gamma))
        out = apply_adjoint(model, SZ)
        assert np.allclose(out, eps * SY - gamma * SZ - 0.5 * gamma * IDENTITY, atol=1e-14)


class TestDuality:
    def test_identity_observable_gives_zero(self, rng):
        model = random_model(rng, 3)
        rho = random_density(rng, 3)
        forward, backward = duality_check(model, rho, np.eye(3))
        assert abs(forward) <= 1e-12 * generator_scale(model)
        assert abs(backward) <= 1e-12 * generator_scale(model)

    def test_random_agreement(self, rng):
        for _ in range(20):
            model = random_model(rng, 3, n_jumps=2)
            rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            forward, backward = duality_check(model, rho, x)
            assert abs(forward - backward) <= 1e-11 * max(abs(forward), 1.0)

    def test_tls_excited_population_flow(self):
        gamma = 0.7
        model = build_tls(TLSParams(0.5, 0.9, gamma))
        forward, backward = duality_check(model, EXCITED, SZ)
        assert forward == pytest.approx(-gamma, abs=1e-13)
        assert backward == pytest.approx(-gamma, abs=1e-13)


class TestValidateState:
    def test_maximally_mixed_valid(self):
        state = validate_state(np.eye(2) / 2.0)
        assert state.dim == 2

    def test_trace_violation(self):
        with pytest.raises(StateValidationError) as excinfo:
            validate_state(np.eye(2))
        assert any(name == "trace" for name, _, _ in excinfo.value.violations)

    def test_positivity_violation(self):
        with pytest.raises(StateValidationError) as excinfo:
            validate_state(np.diag([1.5, -0.5]))
        assert any(name == "positivity" for name, _, _ in excinfo.value.violations)

    def test_hermiticity_violation(self):
        with pytest.raises(StateValidationError) as excinfo:
            validate_state(np.array([[0.5, 1.0], [0.0, 0.5]]))
        assert any(name == "hermiticity" for name, _, _ in excinfo.value.violations)

    def test_passthrough(self, rng):
        state = random_density(rng, 3)
        assert validate_state(state) is state

    def test_array_protocol_of_numpy_1(self, monkeypatch):
        """NumPy 1.x calls ``__array__()`` or ``__array__(dtype)``, and its
        ``np.array`` rejects ``copy=None``."""
        numpy_array = np.array

        def array_without_none_copy(obj, dtype=None, *, copy=True, **kwargs):
            if copy is None:
                raise ValueError("NoneType copy mode not allowed")
            return numpy_array(obj, dtype=dtype, copy=copy, **kwargs)

        state = validate_state(GROUND)
        monkeypatch.setattr(np, "array", array_without_none_copy)
        assert np.array_equal(state.__array__(), GROUND)
        assert state.__array__(complex).dtype == complex
        copied = state.__array__(copy=True)
        assert np.array_equal(copied, GROUND) and not np.shares_memory(copied, state.matrix)


class TestGeneratorProperties:
    """Structural invariants on a population of random models."""

    sizes = (2, 3, 4, 6)

    def test_trace_annihilation_and_hermiticity(self, rng):
        for i in range(200):
            n = self.sizes[i % len(self.sizes)]
            model = random_model(rng, n, n_jumps=1 + i % 2)
            rho = random_hermitian(rng, n)
            out = apply_generator(model, rho)
            scale = generator_scale(model) * np.linalg.norm(rho)
            assert abs(np.trace(out)) <= 1e-11 * scale
            assert np.linalg.norm(out - out.conj().T) <= 1e-11 * scale

    def test_linearity(self, rng):
        for _ in range(50):
            model = random_model(rng, 3)
            r1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            r2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            lhs = apply_generator(model, a * r1 + b * r2)
            rhs = a * apply_generator(model, r1) + b * apply_generator(model, r2)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)

    def test_adjoint_duality(self, rng):
        for i in range(200):
            n = self.sizes[i % len(self.sizes)]
            model = random_model(rng, n)
            rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            forward, backward = duality_check(model, rho, x)
            scale = generator_scale(model) * np.linalg.norm(rho) * np.linalg.norm(x)
            assert abs(forward - backward) <= 1e-11 * scale

    def test_random_density_is_valid(self, rng):
        for n in (2, 3, 4, 6):
            state = random_density(rng, n)
            assert np.trace(state.matrix) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(state.matrix).min() >= -1e-12


def state_of_kind(rng, n, kind):
    """A matrix that is a density matrix or fails exactly the invariant ``kind`` names.

    A non-Hermitian one may also have a negative Hermitian part, which must
    then go unreported.
    """
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "positivity":  # Hermitian, unit trace, one eigenvalue below the floor
        q = np.linalg.qr(g)[0]
        p = rng.uniform(0.1, 1.0, size=n)
        p[0] = -rng.uniform(1e-6, 0.5)
        p[1:] *= (1.0 - p[0]) / p[1:].sum()
        m = (q * p) @ q.conj().T
        return 0.5 * (m + m.conj().T)
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    if kind == "trace":
        return rho * (1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(1e-6, 0.5))
    if kind == "hermiticity":  # a strictly upper triangular push keeps the trace
        return rho + rng.uniform(1e-6, 2.0) * np.triu(g, 1)
    return rho


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    kinds=st.lists(
        st.sampled_from(["valid", "trace", "hermiticity", "positivity"]), min_size=1, max_size=8
    ),
)
def test_stacked_report_equals_validate_state_report(seed, n, kinds):
    rng = np.random.default_rng(seed)
    stack = np.stack([state_of_kind(rng, n, kind) for kind in kinds])
    report = state_violations(stack, TRACE_RTOL)
    for i, (kind, matrix) in enumerate(zip(kinds, stack)):
        try:
            validate_state(matrix)
            expected = None
        except StateValidationError as exc:
            expected = exc.violations
        assert report.get(i) == expected
        assert [name for name, _, _ in report.get(i, [])] == ([] if kind == "valid" else [kind])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), n_jumps=st.integers(0, 3))
def test_hermitian_view_matches_the_generator(seed, n, n_jumps):
    rng = np.random.default_rng(seed)
    operator = random_model(rng, n, n_jumps=n_jumps).operator
    assert operator.shape == (n * n, n * n) and operator.dtype == float
    r = rng.normal(size=n * n)
    m = from_hermitian_basis(r)
    assert np.array_equal(m, m.conj().T)
    image = operator.matvec(r)
    assert image.dtype == float
    expected = to_hermitian_basis(operator.apply(m)).real
    assert np.linalg.norm(image - expected) <= 1e-13 * operator.norm_bound * np.linalg.norm(m)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    hermitian_part = to_hermitian_basis(0.5 * (x + x.conj().T)).real
    real_part = to_hermitian_basis(x).real
    assert np.linalg.norm(real_part - hermitian_part) <= 4 * EPS * np.linalg.norm(x)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), n_jumps=st.integers(0, 3))
def test_hermitian_view_on_complex_coordinates(seed, n, n_jumps):
    rng = np.random.default_rng(seed)
    operator = random_model(rng, n, n_jumps=n_jumps).operator
    r = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    image = operator.matvec(r)
    assert image.dtype == complex
    expected = to_hermitian_basis(operator.apply(from_hermitian_basis(r)))
    assert np.linalg.norm(image - expected) <= 1e-13 * operator.norm_bound * np.linalg.norm(r)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    n_jumps=st.integers(0, 3),
    dropped=st.integers(0, 3),
    k=st.integers(1, 3),
)
def test_one_kernel_matches_the_dense_matrix_in_both_pictures(seed, n, n_jumps, dropped, k):
    rng = np.random.default_rng(seed)
    drawn = random_model(rng, n, n_jumps=n_jumps)
    rates = [0.0 if i < dropped else rate for i, (rate, _) in enumerate(drawn.jumps)]
    model = LindbladModel(drawn.hamiltonian, tuple(zip(rates, (op for _, op in drawn.jumps))))
    operator = model.operator
    superop = build_superoperator(model)
    s, a = superop.matrix, hermitian_matrix(superop)
    nu = operator.norm_bound
    # round-off relative to nu ||rho||_F: at most 0.74 eps on 400 seeded draws with n = 1 to 6
    bound = 8 * EPS * nu
    rhos = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    for kernel, matrix in ((operator, s), (operator.adjoint, s.conj().T)):
        images = kernel.apply(rhos)
        for rho, image in zip(rhos, images):
            expected = unvec(matrix @ vec(rho), n)
            assert np.linalg.norm(image - expected) <= bound * np.linalg.norm(rho)
    r = rng.normal(size=n * n)
    for coords in (r, r + 1j * rng.normal(size=n * n)):
        for kernel, matrix in ((operator, a), (operator.adjoint, a.T)):
            image = kernel.matvec(coords)
            assert image.dtype == coords.dtype
            assert np.linalg.norm(image - matrix @ coords) <= bound * np.linalg.norm(coords)
    assert operator.adjoint.norm_bound == nu
    back = operator.adjoint.adjoint
    assert back.h_eff.tobytes() == operator.h_eff.tobytes()
    assert len(back.jumps) == len(operator.jumps) == n_jumps - min(dropped, n_jumps)
    for pair, original in zip(back.jumps, operator.jumps):
        assert [x.tobytes() for x in pair] == [x.tobytes() for x in original]
