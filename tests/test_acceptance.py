"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``) and exercises the criterion at its stated tolerance.
"""

import functools

import numpy as np

from lindbladmv.analysis import (
    detect_degeneracy,
    fit_scaling_slopes,
    observable_modes,
    run_benchmark,
)
from lindbladmv.arnoldi import arnoldi_reduce, propagate_reduced, ritz_values
from lindbladmv.heisenberg import (
    adjoint_spectrum,
    close_set,
    expectations,
    propagate_expectations,
)
from lindbladmv.model import (
    apply_adjoint,
    apply_generator,
    duality_check,
    random_density,
    random_model,
)
from lindbladmv.tls import EXCITED, GROUND, IDENTITY, SZ, TLSParams, build_tls
from lindbladmv.vectorized import build_superoperator, propagate, spectrum, vec

from conftest import (
    ep_params,
    multiset_close,
    pauli_set,
    random_hermitian,
    tls_adjoint_golden,
    tls_hessenberg_golden,
    tls_superop_golden,
)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}", flush=True)
                raise
            print(f"criterion {number}: PASS - {description}", flush=True)
        return run
    return wrap


def matrix_units(n):
    units = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    return units


@criterion(1, "golden matrices for all three representations (5 random parameter triples)")
def test_golden_matrices():
    rng = np.random.default_rng(11)
    for _ in range(5):
        gamma = float(1.0 - rng.uniform(0.0, 0.95))
        delta = float(rng.uniform(0.2, 2.0)) * gamma
        eps = float(rng.uniform(0.2, 2.0)) * gamma
        model = build_tls(TLSParams(delta, eps, gamma))

        superop = build_superoperator(model)
        assert np.abs(superop.matrix - tls_superop_golden(delta, eps, gamma)).max() <= 1e-10

        reduction = arnoldi_reduce(model, GROUND, 3)
        assert np.abs(reduction.hessenberg - tls_hessenberg_golden(delta, eps, gamma)).max() <= 1e-10

        rep = close_set(model, pauli_set())
        assert np.abs(rep.coeffs - tls_adjoint_golden(delta, eps, gamma)).max() <= 1e-10


@criterion(2, "third-order non-Hermitian degeneracy at the exceptional point, all representations")
def test_exceptional_point():
    delta, eps, gamma = ep_params(1.0)
    model = build_tls(TLSParams(delta, eps, gamma))
    superop = build_superoperator(model)

    spectra = {
        "vec": spectrum(superop).eigenvalues,
        "arnoldi": ritz_values(arnoldi_reduce(model, GROUND, 3)).eigenvalues,
        "heisenberg": np.conj(adjoint_spectrum(close_set(model, pauli_set())).eigenvalues),
    }
    for values in spectra.values():
        assert len(values) == 4
        degenerate = [z for z in values if abs(z - (-2.0 / 3.0)) <= 1e-4]
        stationary = [z for z in values if abs(z) <= 1e-8]
        assert len(degenerate) == 3
        assert len(stationary) == 1

    report = detect_degeneracy(superop, 1e-3 * gamma)
    assert report.defective
    assert any(
        cluster.size == 3 and abs(cluster.center - (-2.0 / 3.0)) <= 1e-4
        for cluster in report.clusters
    )


@criterion(3, "spectra agree as multisets across representations on a detuning/drive grid")
def test_cross_representation_spectra():
    gamma = 1.0
    grid = np.linspace(0.4, 2.0, 5) * gamma
    paulis = pauli_set()
    for delta in grid:
        for eps in grid:
            model = build_tls(TLSParams(delta, eps, gamma))
            full = spectrum(build_superoperator(model)).eigenvalues
            ritz = ritz_values(arnoldi_reduce(model, GROUND, 3)).eigenvalues
            heis = np.conj(adjoint_spectrum(close_set(model, paulis)).eigenvalues)
            assert multiset_close(ritz, full, 1e-8)
            assert multiset_close(heis, full, 1e-8)


@criterion(4, "dynamics agree across the three pictures on 50 random models")
def test_picture_equivalence_of_dynamics():
    rng = np.random.default_rng(23)
    for i in range(50):
        n = (2, 3, 4)[i % 3]
        model = random_model(rng, n, n_jumps=1 + i % 2)
        rho0 = random_density(rng, n)
        superop = build_superoperator(model)
        units = matrix_units(n)
        scale = np.linalg.norm(superop.matrix, 2)
        times = np.linspace(0.0, 10.0 / scale, 10)

        states = propagate(superop, rho0, times)
        via_vec = np.array(
            [[np.trace(x @ s.matrix) for x in units] for s in states]
        )

        reduction = arnoldi_reduce(model, rho0, n * n - 1)
        via_arnoldi = np.array(
            [[np.trace(x @ state) for x in units] for state in propagate_reduced(reduction, times)]
        )

        rep = close_set(model, units)
        via_heisenberg = propagate_expectations(rep, expectations(units, rho0), times)

        assert np.abs(via_arnoldi - via_vec).max() <= 1e-8
        assert np.abs(via_heisenberg - via_vec).max() <= 1e-8


@criterion(5, "generator invariant suite on 200 random models")
def test_generator_invariants():
    rng = np.random.default_rng(31)
    sizes = (2, 3, 4, 6)
    for i in range(200):
        n = sizes[i % len(sizes)]
        model = random_model(rng, n, n_jumps=1 + i % 2)
        scale = np.linalg.norm(model.hamiltonian) + sum(
            rate * np.linalg.norm(op) ** 2 for rate, op in model.jumps
        )

        rho = random_hermitian(rng, n)
        image = apply_generator(model, rho)
        rho_scale = scale * np.linalg.norm(rho)
        assert abs(np.trace(image)) <= 1e-11 * rho_scale
        assert np.linalg.norm(image - image.conj().T) <= 1e-11 * rho_scale

        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        forward, backward = duality_check(model, rho, x)
        assert abs(forward - backward) <= 1e-11 * rho_scale * np.linalg.norm(x)

        assert np.linalg.norm(apply_adjoint(model, np.eye(n))) <= 1e-12 * scale

        values = spectrum(build_superoperator(model)).eigenvalues
        assert values.real.max() <= 1e-9
        assert multiset_close(values, np.conj(values), 1e-9)


@criterion(6, "analytic decay of the undriven excited state through every propagation path")
def test_analytic_decay_every_path():
    for gamma in (1.0, 0.6):
        model = build_tls(TLSParams(0.0, 0.0, gamma))
        superop = build_superoperator(model)
        times = np.array([0.0, 0.5, 1.0, 2.0, 5.0]) / gamma
        expected = np.exp(-gamma * times) - 0.5

        for system in (superop, model):
            states = propagate(system, EXCITED, times)
            got = np.array([np.trace(SZ @ s.matrix).real for s in states])
            assert np.abs(got - expected).max() <= 1e-9

        reduction = arnoldi_reduce(model, EXCITED, 3)
        got = np.array(
            [np.trace(SZ @ state).real for state in propagate_reduced(reduction, times)]
        )
        assert np.abs(got - expected).max() <= 1e-9

        rep = close_set(model, [SZ, IDENTITY])
        trajectory = propagate_expectations(rep, expectations(rep.basis, EXCITED), times)
        assert np.abs(trajectory[:, 0].real - expected).max() <= 1e-9


@criterion(7, "mode decomposition reconstructs trajectories and satisfies the sum rule")
def test_mode_decomposition():
    rng = np.random.default_rng(41)
    for i in range(50):
        n = 2 + i % 2
        model = random_model(rng, n, n_jumps=1 + i % 2)
        superop = build_superoperator(model)
        rho0 = random_density(rng, n)
        x = random_hermitian(rng, n)
        dec = observable_modes(superop, rho0, x)

        c0 = complex(np.trace(x @ rho0.matrix))
        assert abs(dec.amplitudes.sum() - c0) <= 1e-10 * max(abs(c0), 1.0)

        scale = np.linalg.norm(superop.matrix, 2)
        times = np.linspace(0.0, 5.0 / scale, 10)
        states = propagate(superop, rho0, times)
        direct = np.array([np.trace(x @ s.matrix) for s in states])
        assert np.abs(dec.evaluate(times) - direct).max() <= 1e-8 * max(
            1.0, np.abs(direct).max()
        )


@criterion(8, "matrix-free exponential action scales below the dense exponential")
def test_scaling_ordering():
    records = run_benchmark([8, 16, 32], ["full-expm", "expm-action"], seed=5)
    assert all(rec.status == "ok" for rec in records)
    assert all(rec.result_error <= 1e-6 for rec in records)
    slopes = fit_scaling_slopes(records)
    assert slopes["expm-action"] < slopes["full-expm"]


@criterion(9, "vectorization turns matrix products into Kronecker actions")
def test_kronecker_identity_suite():
    eye = np.eye(3)
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        scale = max(np.linalg.norm(a) * np.linalg.norm(x) * np.linalg.norm(b), 1.0)
        assert np.linalg.norm(np.kron(eye, a) @ vec(x) - vec(a @ x)) <= 1e-12 * scale
        assert np.linalg.norm(np.kron(b.T, eye) @ vec(x) - vec(x @ b)) <= 1e-12 * scale
        assert np.linalg.norm(np.kron(b.T, a) @ vec(x) - vec(a @ x @ b)) <= 1e-12 * scale
