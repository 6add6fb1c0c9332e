"""Independent references for the benchmark's inputs, and checks of CLI outputs.

Nothing here calls ``lindbladmv``.  The two-level references are the optical
Bloch equations written out from the paper; the random models are
integrated with ``scipy.integrate.solve_ivp`` on a few-line Lindblad
right-hand side, and their spectra come from the generator matrix built
column by column from that right-hand side.  Every check raises
:class:`CheckError` naming what is wrong.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize

from workloads import GAMMA, STEPS, T0, T1, Workload

#: Unit trace and Hermiticity of every output state.
TRACE_TOL = 1e-10
HERM_TOL = 1e-10
#: Expectation values against the reference trajectory.
TRAJECTORY_TOL = 1e-8
#: Eigenvalues against the reference, relative to the spectral radius.
SPECTRUM_RTOL = 1e-8
#: At the third-order EP a triple root splits by about (eps * |M|)^(1/3) ~ 6e-6.
EP_TOL = 1e-4
EP_EIGENVALUE = -2.0 * GAMMA / 3.0


class CheckError(Exception):
    """An output disagrees with its reference or breaks a physical property."""


@dataclass(frozen=True)
class PointReference:
    """Reference of one model: expectation values at every time and its spectrum."""

    trajectory: np.ndarray  # (STEPS, n_observables), complex
    spectrum: np.ndarray | None  # n^2 reference eigenvalues
    trace_sum: float  # sum_k g_k (|Tr A_k|^2 - n ||A_k||_F^2)
    spectrum_tol: float
    cluster_sizes: tuple | None  # exact cluster sizes expected, when known
    defective: bool


@dataclass(frozen=True)
class References:
    dim: int
    labels: tuple
    times: np.ndarray
    readout: str  # "units": the observables are all matrix units; "hermitian": all Hermitian
    points: tuple


def bloch_equations(detuning: float, drive: float, decay: float):
    """d/dt (<Sx>, <Sy>, <Sz>) = M s + b for H = detuning*Sz + drive*Sx and decay via S-."""
    m = np.array([
        [-decay / 2, -detuning, 0.0],
        [detuning, -decay / 2, -drive],
        [0.0, drive, -decay],
    ])
    b = np.array([0.0, 0.0, -decay / 2])
    return m, b


def bloch_cubic(detuning: float, drive: float, decay: float) -> np.ndarray:
    """Coefficients of det(lambda - M), highest power first."""
    return np.array([
        1.0,
        2 * decay,
        1.25 * decay**2 + drive**2 + detuning**2,
        decay**3 / 4 + decay * drive**2 / 2 + decay * detuning**2,
    ])


def bloch_spectrum(detuning: float, drive: float, decay: float, is_ep: bool) -> np.ndarray:
    """0 plus the roots of the Bloch cubic; at the EP the exact triple root."""
    cubic = bloch_cubic(detuning, drive, decay)
    if is_ep:
        triple = np.poly([EP_EIGENVALUE] * 3)
        if np.abs(cubic - triple).max() > 1e-12:
            raise CheckError(f"EP parameters do not give a triple root: {cubic} vs {triple}")
        roots = np.full(3, EP_EIGENVALUE, dtype=complex)
    else:
        roots = np.roots(cubic).astype(complex)
    return np.concatenate([[0.0], roots])


def bloch_trajectory(detuning, drive, decay, s0, times) -> np.ndarray:
    """(<Sx>, <Sy>, <Sz>) at each time from the affine Bloch system."""
    m, b = bloch_equations(detuning, drive, decay)
    augmented = np.zeros((4, 4))
    augmented[:3, :3] = m
    augmented[:3, 3] = b
    y0 = np.append(s0, 1.0)
    return np.array([(scipy.linalg.expm(augmented * t) @ y0)[:3] for t in times])


def lindblad_rhs(hamiltonian: np.ndarray, jumps):
    """rho -> -i[H, rho] + sum_k g_k (A rho A^+ - {A^+ A, rho}/2) on flat row-major arrays."""
    n = hamiltonian.shape[0]
    terms = [(g, a, a.conj().T, a.conj().T @ a) for g, a in jumps]

    def rhs(_t, y):
        rho = y.reshape(n, n)
        out = -1j * (hamiltonian @ rho - rho @ hamiltonian)
        for g, a, a_dag, gram in terms:
            out += g * (a @ rho @ a_dag - 0.5 * (gram @ rho + rho @ gram))
        return out.reshape(-1)

    return rhs


def lindblad_trajectory(hamiltonian, jumps, rho0, times) -> np.ndarray:
    """rho(t) at each time by an explicit Runge-Kutta 8(5,3) at tight tolerance."""
    n = rho0.shape[0]
    sol = scipy.integrate.solve_ivp(
        lindblad_rhs(hamiltonian, jumps), (times[0], times[-1]), rho0.reshape(-1).astype(complex),
        method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14,
    )
    if not sol.success:
        raise CheckError(f"reference integration failed: {sol.message}")
    return sol.y.T.reshape(len(times), n, n)


def lindblad_spectrum(hamiltonian, jumps) -> np.ndarray:
    """Eigenvalues of the generator matrix assembled from the right-hand side."""
    n = hamiltonian.shape[0]
    rhs = lindblad_rhs(hamiltonian, jumps)
    columns = []
    for k in range(n * n):
        unit = np.zeros(n * n, dtype=complex)
        unit[k] = 1.0
        columns.append(rhs(0.0, unit))
    return np.linalg.eigvals(np.array(columns).T)


def trace_identity(jumps, n: int) -> float:
    """Sum of the generator's eigenvalues (its trace): sum_k g_k (|Tr A_k|^2 - n ||A_k||_F^2)."""
    return float(sum(g * (abs(np.trace(a)) ** 2 - n * np.linalg.norm(a) ** 2) for g, a in jumps))


def expected_values(workload: Workload) -> References:
    """References for every model of ``workload``; computed outside any timed region."""
    n = workload.dim
    times = np.linspace(T0, T1, STEPS)
    labels = tuple(label for label, _ in workload.observables)
    stacked = np.array([m for _, m in workload.observables])
    readout = "units" if workload.name == "dense-n16" else "hermitian"
    wants_spectrum = any(op.startswith(("spectrum", "degeneracy")) for op in workload.ops)
    points = []
    for model in workload.models:
        trace_sum = trace_identity(model.jumps, n)
        if model.params is not None:
            detuning, drive, decay = model.params
            s0 = [np.trace(o @ workload.state).real for o in stacked[:3]]
            bloch = bloch_trajectory(detuning, drive, decay, s0, times)
            trajectory = np.column_stack([bloch, np.ones(len(times))]).astype(complex)
            spectrum = bloch_spectrum(detuning, drive, decay, model.is_ep)
            tol = EP_TOL if model.is_ep else SPECTRUM_RTOL * max(1.0, np.abs(spectrum).max())
            sizes = (1, 3) if model.is_ep else (1,) * (n * n)
        else:
            rhos = lindblad_trajectory(model.hamiltonian, model.jumps, workload.state, times)
            trajectory = np.einsum("kij,tji->tk", stacked, rhos)
            spectrum = lindblad_spectrum(model.hamiltonian, model.jumps) if wants_spectrum else None
            radius = 1.0 if spectrum is None else np.abs(spectrum).max()
            tol = SPECTRUM_RTOL * max(1.0, radius)
            sizes = None
        points.append(PointReference(trajectory, spectrum, trace_sum, tol, sizes, model.is_ep))
    return References(n, labels, times, readout, tuple(points))


def max_matching_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance in the best one-to-one pairing of two equal-size multisets."""
    if a.shape != b.shape:
        raise CheckError(f"{a.shape[0]} eigenvalues against {b.shape[0]}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def parse_trajectory(text: str):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    if header[0] != "t" or len(header) % 2 != 1:
        raise CheckError(f"bad trajectory header {lines[0][:80]!r}")
    labels = tuple(h[: -len("_re")] for h in header[1::2])
    if any(h != f"{lab}_im" for h, lab in zip(header[2::2], labels)):
        raise CheckError("trajectory header does not pair _re with _im columns")
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return labels, table[:, 0], table[:, 1::2] + 1j * table[:, 2::2]


def check_trajectory(text: str, refs: References, point: PointReference) -> None:
    labels, times, values = parse_trajectory(text)
    if labels != refs.labels:
        raise CheckError("trajectory columns do not match the observables")
    if times.shape != refs.times.shape or np.abs(times - refs.times).max() > 1e-12:
        raise CheckError(f"trajectory time grid is wrong: {times}")
    if refs.readout == "units":
        n = refs.dim
        rhos = values.reshape(-1, n, n).transpose(0, 2, 1)
        trace_err = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0).max()
        herm_err = np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max()
    else:
        trace_err = np.abs(values[:, refs.labels.index("I")] - 1.0).max()
        herm_err = np.abs(values.imag).max()
    if trace_err > TRACE_TOL:
        raise CheckError(f"rho(t) trace deviates from 1 by {trace_err:.3e}")
    if herm_err > HERM_TOL:
        raise CheckError(f"rho(t) is not Hermitian (defect {herm_err:.3e})")
    err = np.abs(values - point.trajectory).max()
    if err > TRAJECTORY_TOL:
        raise CheckError(f"trajectory deviates from the reference by {err:.3e}")


def parse_spectrum(text: str) -> np.ndarray:
    pairs = [line.split(",") for line in text.strip().splitlines()]
    return np.array([complex(float(re_), float(im)) for re_, im in pairs])


def check_spectrum(text: str, refs: References, point: PointReference) -> np.ndarray:
    values = parse_spectrum(text)
    tol = point.spectrum_tol
    size = refs.dim**2
    if values.shape[0] != size:
        raise CheckError(f"{values.shape[0]} eigenvalues, expected {size}")
    if values.real.max() > tol:
        raise CheckError(f"eigenvalue with positive real part {values.real.max():.3e}")
    zeros = int((np.abs(values) <= tol).sum())
    if zeros != 1:
        raise CheckError(f"{zeros} zero eigenvalues, expected exactly one")
    if max_matching_distance(values, values.conj()) > tol:
        raise CheckError("eigenvalues do not come in conjugate pairs")
    if abs(values.sum() - point.trace_sum) > tol * refs.dim:
        raise CheckError(f"eigenvalues sum to {values.sum():.12g}, trace is {point.trace_sum:.12g}")
    if point.spectrum is not None and max_matching_distance(values, point.spectrum) > tol:
        raise CheckError("spectrum disagrees with the reference")
    return values


_CLUSTER = re.compile(r"cluster size=(\d+) center=\(([^,]+),([^)]+)\) diameter=\S+$")


def check_degeneracy(text: str, refs: References, point: PointReference) -> None:
    clusters, defective = [], None
    for line in text.strip().splitlines():
        match = _CLUSTER.match(line)
        if match:
            clusters.append((int(match[1]), complex(float(match[2]), float(match[3]))))
        elif line.startswith("defective: "):
            defective = line.split(": ", 1)[1]
    sizes = sorted(size for size, _ in clusters)
    if sum(sizes) != refs.dim**2:
        raise CheckError(f"cluster sizes sum to {sum(sizes)}, expected {refs.dim ** 2}")
    if defective != ("yes" if point.defective else "no"):
        raise CheckError(f"defective: {defective}, expected {'yes' if point.defective else 'no'}")
    if point.cluster_sizes is not None and tuple(sizes) != point.cluster_sizes:
        raise CheckError(f"cluster sizes {sizes}, expected {list(point.cluster_sizes)}")
    if point.defective and not any(
        size == 3 and abs(center - EP_EIGENVALUE) <= EP_TOL for size, center in clusters
    ):
        raise CheckError(f"no size-3 cluster at the EP eigenvalue {EP_EIGENVALUE:.6g}")


def check_output(op: str, text: str, refs: References, point: PointReference):
    """Check one operation's output; returns the parsed spectrum for spectrum ops."""
    command = op.partition(".")[0]
    if command == "propagate":
        return check_trajectory(text, refs, point)
    if command == "spectrum":
        return check_spectrum(text, refs, point)
    return check_degeneracy(text, refs, point)
