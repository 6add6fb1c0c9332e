import numpy as np
import pytest

from lindbladmv.analysis import (
    benchmark_csv,
    detect_degeneracy,
    fit_scaling_slopes,
    observable_modes,
    run_benchmark,
    BenchRecord,
)
from lindbladmv.errors import DefectiveSpectrumError, ValidationError
from lindbladmv.linalg import EigenDecomposition
from lindbladmv.model import random_density, random_model
from lindbladmv.tls import EXCITED, GROUND, SX, SZ, TLSParams, build_tls
from lindbladmv.vectorized import build_superoperator, propagate
from lindbladmv.model import LindbladModel

from conftest import ep_params, random_hermitian


class TestObservableModes:
    def test_undriven_decay_modes(self):
        gamma = 0.8
        superop = build_superoperator(build_tls(TLSParams(0.0, 0.0, gamma)))
        dec = observable_modes(superop, EXCITED, SZ)
        pairs = sorted(zip(dec.eigenvalues, dec.amplitudes), key=lambda p: p[0].real)
        assert len(pairs) == 2
        assert pairs[0][0] == pytest.approx(-gamma, abs=1e-12)
        assert pairs[0][1] == pytest.approx(1.0, abs=1e-12)
        assert pairs[1][0] == pytest.approx(0.0, abs=1e-12)
        assert pairs[1][1] == pytest.approx(-0.5, abs=1e-12)

    def test_undriven_coherence_decay_rates_and_frequencies(self):
        # <Sx> from |+><+| rotates at the detuning and decays at half the decay rate
        superop = build_superoperator(build_tls(TLSParams(0.7, 0.0, 0.8)))
        dec = observable_modes(superop, np.full((2, 2), 0.5), SX)
        order = np.argsort(dec.frequencies)
        assert dec.decay_rates[order] == pytest.approx([0.4, 0.4], abs=1e-12)
        assert dec.frequencies[order] == pytest.approx([-0.7, 0.7], abs=1e-12)
        assert dec.amplitudes[order] == pytest.approx([0.25, 0.25], abs=1e-12)

    def test_stationary_state_keeps_only_zero_mode(self):
        superop = build_superoperator(build_tls(TLSParams(0.0, 0.0, 1.0)))
        dec = observable_modes(superop, GROUND, SZ)
        assert len(dec.eigenvalues) == 1
        assert dec.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert dec.amplitudes[0] == pytest.approx(-0.5, abs=1e-12)

    def test_reconstruction_matches_propagation(self, rng):
        model = build_tls(TLSParams(0.9, 1.4, 0.7))
        superop = build_superoperator(model)
        rho0 = random_density(rng, 2)
        x = random_hermitian(rng, 2)
        dec = observable_modes(superop, rho0, x)
        times = np.linspace(0.0, 5.0, 10)
        states = propagate(superop, rho0, times)
        direct = np.array([np.trace(x @ s.matrix) for s in states])
        assert np.abs(dec.evaluate(times) - direct).max() <= 1e-8

    def test_sum_rule_and_conjugate_pairs(self, rng):
        for i in range(50):
            n = 2 + i % 2
            model = random_model(rng, n, n_jumps=2)
            superop = build_superoperator(model)
            rho0 = random_density(rng, n)
            x = random_hermitian(rng, n)
            dec = observable_modes(superop, rho0, x)
            c0 = complex(np.trace(x @ rho0.matrix))
            assert abs(dec.amplitudes.sum() - c0) <= 1e-10 * max(abs(c0), 1.0)
            # real observable + state: modes close under joint conjugation
            flipped = list(zip(np.conj(dec.eigenvalues), np.conj(dec.amplitudes)))
            for lam, amp in zip(dec.eigenvalues, dec.amplitudes):
                dist = min(
                    abs(lam - fl) + abs(amp - fa) for fl, fa in flipped
                )
                assert dist <= 1e-8 * max(1.0, abs(amp))

    def test_random_models_reconstruct(self, rng):
        for i in range(50):
            n = 2 + i % 2
            model = random_model(rng, n)
            superop = build_superoperator(model)
            rho0 = random_density(rng, n)
            x = random_hermitian(rng, n)
            dec = observable_modes(superop, rho0, x)
            scale = np.linalg.norm(superop.matrix, 2)
            times = np.linspace(0.0, 5.0 / scale, 6)
            states = propagate(superop, rho0, times)
            direct = np.array([np.trace(x @ s.matrix) for s in states])
            assert np.abs(dec.evaluate(times) - direct).max() <= 1e-8 * max(
                1.0, np.abs(direct).max()
            )

    def test_defective_spectrum_refused(self):
        delta, eps, gamma = ep_params()
        superop = build_superoperator(build_tls(TLSParams(delta, eps, gamma)))
        with pytest.raises(DefectiveSpectrumError):
            observable_modes(superop, EXCITED, SZ)


def clusters_by_pairwise_loop(values, cluster_tol):
    """Single-linkage clusters by the all-pairs loop, as ``(center, members, diameter)``."""
    count = values.shape[0]
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(count):
        for j in range(i + 1, count):
            if abs(values[i] - values[j]) <= cluster_tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(count):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        pts = values[members]
        diameter = max((abs(a - b) for a in pts for b in pts), default=0.0)
        clusters.append((complex(pts.mean()), tuple(members), float(diameter)))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


class TestDetectDegeneracy:
    def test_exceptional_point(self):
        delta, eps, gamma = ep_params()
        superop = build_superoperator(build_tls(TLSParams(delta, eps, gamma)))
        report = detect_degeneracy(superop, 1e-3 * gamma)
        assert report.defective
        triple = [c for c in report.clusters if c.size == 3]
        assert len(triple) == 1
        assert abs(triple[0].center - (-2.0 / 3.0) * gamma) <= 1e-4 * gamma
        assert triple[0].diameter <= 1e-3 * gamma

    def test_ordinary_degeneracy_not_defective(self):
        gamma = 1.0
        superop = build_superoperator(build_tls(TLSParams(0.0, 0.0, gamma)))
        report = detect_degeneracy(superop, 1e-6)
        assert not report.defective
        pair = [c for c in report.clusters if c.size == 2]
        assert len(pair) == 1
        assert abs(pair[0].center - (-gamma / 2.0)) <= 1e-12

    def test_generic_spectrum_all_singletons(self):
        superop = build_superoperator(build_tls(TLSParams(0.9, 1.7, 0.8)))
        report = detect_degeneracy(superop, 1e-6)
        assert [c.size for c in report.clusters] == [1, 1, 1, 1]
        assert not report.defective

    def test_zero_model_single_cluster(self):
        superop = build_superoperator(LindbladModel(np.zeros((2, 2))))
        report = detect_degeneracy(superop, 1e-9)
        assert len(report.clusters) == 1
        assert report.clusters[0].size == 4
        assert not report.defective

    def test_deterministic_ordering(self):
        superop = build_superoperator(build_tls(TLSParams(0.9, 1.7, 0.8)))
        report = detect_degeneracy(superop, 1e-6)
        centers = [(c.center.real, c.center.imag) for c in report.clusters]
        assert centers == sorted(centers)

    @pytest.mark.parametrize("seed", range(8))
    def test_clusters_match_pairwise_loop(self, monkeypatch, seed):
        # spectra on a lattice of spacing 0.8 * cluster_tol: exact ties, chains
        # of near neighbours and isolated values, half of them jittered
        import lindbladmv.analysis as analysis

        rng = np.random.default_rng(seed)
        cluster_tol = 1e-3
        count = 60
        values = 0.8 * cluster_tol * (rng.integers(-6, 7, count) + 1j * rng.integers(-3, 4, count))
        values[::2] += 0.3 * cluster_tol * rng.uniform(-1.0, 1.0, count // 2)
        values = values[np.lexsort((values.imag, values.real))]
        fake = EigenDecomposition(values, np.eye(count), np.zeros(count), 1.0)
        monkeypatch.setattr(analysis, "spectrum", lambda superop: fake)
        superop = build_superoperator(build_tls(TLSParams(0.0, 0.0, 1.0)))  # the patch ignores it
        report = detect_degeneracy(superop, cluster_tol)
        got = [(c.center, c.members, c.diameter) for c in report.clusters]
        assert got == clusters_by_pairwise_loop(values, cluster_tol)
        assert 1 < len(got) < count

    @pytest.mark.parametrize("spacing, clusters", [(0.5, 1), (3.0, 256)], ids=["chain", "singletons"])
    def test_clusters_at_the_extremes_match_pairwise_loop(self, monkeypatch, spacing, clusters):
        # 256 values on a line in shuffled order, neighbours spacing * cluster_tol
        # apart: one chain that links them all, or no close pair at all
        import lindbladmv.analysis as analysis

        cluster_tol = 1e-3
        count = 256
        steps = np.random.default_rng(0).permutation(count)
        values = spacing * cluster_tol * np.exp(0.3j) * steps
        fake = EigenDecomposition(values, np.eye(count), np.zeros(count), 1.0)
        monkeypatch.setattr(analysis, "spectrum", lambda superop: fake)
        superop = build_superoperator(build_tls(TLSParams(0.0, 0.0, 1.0)))  # the patch ignores it
        report = detect_degeneracy(superop, cluster_tol)
        got = [(c.center, c.members, c.diameter) for c in report.clusters]
        assert got == clusters_by_pairwise_loop(values, cluster_tol)
        assert len(got) == clusters

    def test_rejects_bad_tolerance(self):
        superop = build_superoperator(build_tls(TLSParams(0.0, 0.0, 1.0)))
        for cluster_tol in (0.0, np.nan, np.inf, True, "x"):
            with pytest.raises(ValidationError, match="cluster_tol"):
                detect_degeneracy(superop, cluster_tol)


class TestBenchmark:
    def test_cross_method_agreement_smallest_dim(self):
        records = run_benchmark(
            [2],
            ["full-diagonalization", "full-expm", "expm-action", "arnoldi-3"],
            seed=3,
            repeats=1,
        )
        assert len(records) == 4
        for rec in records:
            assert rec.status == "ok"
            assert rec.wall_time_s > 0.0
            assert rec.result_error <= 1e-9

    def test_one_record_per_cell(self):
        records = run_benchmark([2, 3], ["full-expm", "expm-action"], seed=0, repeats=1)
        cells = {(r.n, r.method) for r in records}
        assert cells == {(2, "full-expm"), (2, "expm-action"), (3, "full-expm"), (3, "expm-action")}

    def test_trivial_agreement_threshold(self):
        records = run_benchmark([2, 4], ["full-expm", "expm-action"], seed=1, repeats=1)
        assert all(rec.result_error <= 1e-6 for rec in records)

    def test_timeout_marks_cell(self):
        records = run_benchmark([2], ["full-expm"], seed=0, repeats=1, timeout_s=0.0)
        assert records[0].status == "timeout"
        assert np.isnan(records[0].result_error)

    def test_trivial_model_exact_everywhere(self, monkeypatch):
        import lindbladmv.analysis as analysis

        zero = lambda rng, n: LindbladModel(np.zeros((n, n)))  # noqa: E731
        monkeypatch.setattr(analysis, "random_model", zero)
        records = run_benchmark(
            [2, 3],
            ["full-diagonalization", "full-expm", "expm-action", "arnoldi-3"],
            seed=0,
            repeats=1,
        )
        assert all(rec.result_error <= 1e-15 for rec in records)

    def test_cells_time_the_propagation_the_cli_runs(self):
        import lindbladmv.analysis as analysis

        seed, n = 4, 3
        records = run_benchmark([n], ["full-expm", "expm-action"], seed=seed, repeats=1)
        rng = np.random.default_rng(seed)
        model = random_model(rng, n)
        rho0 = random_density(rng, n)
        superop = build_superoperator(model)
        reference = analysis._diagonal_propagate(superop, rho0)
        states = {
            "full-expm": propagate(superop, rho0, [analysis.BENCH_TIME])[0],
            "expm-action": propagate(model, rho0, [analysis.BENCH_TIME])[0],
        }
        for rec in records:
            assert rec.result_error == float(np.linalg.norm(states[rec.method].matrix - reference))

    def test_arnoldi_cell_is_sized_at_the_benchmark_time(self):
        import lindbladmv.analysis as analysis
        from lindbladmv.arnoldi import arnoldi_reduce, propagate_reduced

        seed, n = 4, 6
        (record,) = run_benchmark([n], ["arnoldi-35"], seed=seed, repeats=1)
        rng = np.random.default_rng(seed)
        model = random_model(rng, n)
        rho0 = random_density(rng, n)
        reference = analysis._diagonal_propagate(build_superoperator(model), rho0)
        reduction = arnoldi_reduce(model, rho0, 35, analysis.BENCH_TIME)
        assert reduction.size < n * n  # the cell stops where its estimate passes
        state = propagate_reduced(reduction, [analysis.BENCH_TIME])[0]
        assert record.result_error == float(np.linalg.norm(state - reference))

    def test_csv_format(self):
        records = [
            BenchRecord(2, "full-expm", 0.5, 1e-12),
            BenchRecord(4, "full-expm", 1.0, 2e-12),
            BenchRecord(2, "expm-action", 0.25, float("nan"), status="timeout"),
        ]
        text = benchmark_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == "n,method,wall_time_s,result_error,status"
        assert len(lines) == 4  # one row per record, completed or not
        assert lines[1].startswith("2,full-expm,")
        assert lines[3] == "2,expm-action,0.25,,timeout"

    def test_slope_fit(self):
        records = [
            BenchRecord(n, "quartic", float(n**4), 0.0) for n in (8, 16, 32)
        ] + [BenchRecord(n, "sextic", float(n**6), 0.0) for n in (8, 16, 32)]
        slopes = fit_scaling_slopes(records)
        assert slopes["quartic"] == pytest.approx(4.0, abs=1e-9)
        assert slopes["sextic"] == pytest.approx(6.0, abs=1e-9)

    def test_slope_needs_two_distinct_dims(self):
        records = [BenchRecord(3, "once", 0.5, 0.0), BenchRecord(3, "once", 0.7, 0.0)]
        records += [BenchRecord(n, "timed-out", 1.0, float("nan"), "timeout") for n in (2, 4)]
        records += [BenchRecord(2, "twice", 1.0, 0.0), BenchRecord(4, "twice", 4.0, 0.0)]
        assert fit_scaling_slopes(records) == {"twice": pytest.approx(2.0, abs=1e-12)}

    @pytest.mark.parametrize(
        "dims, methods",
        [([3, 3], ["full-expm"]), ([2, np.int64(2)], ["full-expm"]), ([2], ["full-expm"] * 2)],
        ids=["dims", "numpy-dims", "methods"],
    )
    def test_rejects_repeated_cells(self, dims, methods):
        with pytest.raises(ValidationError, match="must not repeat"):
            run_benchmark(dims, methods, seed=0, repeats=1)

    def test_rejects_tiny_dims(self):
        with pytest.raises(ValidationError):
            run_benchmark([1], ["full-expm"], seed=0)

    @pytest.mark.parametrize(
        "options",
        [
            {"seed": -1},
            {"seed": True},
            {"seed": 1.5},
            {"repeats": 0},
            {"repeats": True},
            {"repeats": 2.5},
            {"timeout_s": np.nan},
            {"timeout_s": -1.0},
            {"timeout_s": "x"},
        ],
        ids=[
            "seed",
            "bool-seed",
            "float-seed",
            "repeats",
            "bool-repeats",
            "float-repeats",
            "nan-timeout",
            "negative-timeout",
            "str-timeout",
        ],
    )
    def test_rejects_bad_options(self, options):
        with pytest.raises(ValidationError):
            run_benchmark([2], ["full-expm"], **{"seed": 0, **options})

    @pytest.mark.parametrize(
        "dims, methods",
        [([2.7], ["full-expm"]), ([True], ["full-expm"]), ([], ["full-expm"]), ([2], [])],
        ids=["float", "bool", "no-dims", "no-methods"],
    )
    def test_rejects_dims_that_are_not_integers_and_empty_sweeps(self, dims, methods):
        with pytest.raises(ValidationError):
            run_benchmark(dims, methods, seed=0, repeats=1)

    def test_accepts_numpy_integer_dims(self):
        (record,) = run_benchmark(np.array([2]), ["full-expm"], seed=0, repeats=1)
        assert record.n == 2 and type(record.n) is int and record.status == "ok"

    def test_unknown_method(self, monkeypatch):
        import lindbladmv.analysis as analysis

        with pytest.raises(ValidationError):
            run_benchmark([2], ["cayley"], seed=0)

        def no_model_work(*args):  # every tag is checked before any model is built
            raise AssertionError("the reference propagation ran")

        monkeypatch.setattr(analysis, "_diagonal_propagate", no_model_work)
        for methods in (["full-expm", "bogus"], ["arnoldi-x"], ["arnoldi--1"], [5]):
            with pytest.raises(ValidationError):
                run_benchmark([24], methods, repeats=1)
