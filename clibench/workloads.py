"""Seeded inputs of the benchmark workloads, written in the CLI's JSON formats.

The inputs come from the benchmark's own random generator and are written
by its own JSON writer (the formats the README documents), so they do not
change when ``lindbladmv.random_model`` or ``lindbladmv.modelio`` change.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

GAMMA = 1.0
#: Third-order exceptional point of the driven two-level system (units of GAMMA).
EP_DETUNING = np.sqrt(1.0 / 108.0) * GAMMA
EP_DRIVE = np.sqrt(8.0 / 108.0) * GAMMA
#: Seeded TLS parameters are drawn from these bands; every grid point but the
#: EP keeps its eigenvalues at least 0.19 * GAMMA apart.
DETUNING_BANDS = ((0.3, 0.6), (0.8, 1.2), (1.5, 2.0), (2.5, 3.0))
DRIVE_BANDS = ((0.05, 0.15), (0.5, 0.8), (1.0, 1.5), (2.0, 3.0))
#: Jump rates of the random models.  Together with the fixed Frobenius norms
#: below they keep the generator's norm, and so the run time, independent
#: of the seed.
RANDOM_RATES = (1.0, 0.5)
#: Models per action-n32 round.  The Krylov substep count of one model still
#: varies by up to 10% between seeds (47 to 52 ``scipy.linalg.expm`` trials
#: per propagation); three average it out.
ACTION_MODELS = 3

T0, T1, STEPS = 0.0, 5.0, 21
PROPAGATE_METHODS = ("vec", "expm-action", "arnoldi", "heisenberg")
SPECTRUM_METHODS = ("vec", "arnoldi", "heisenberg")
ALL_OPS = (
    tuple(f"propagate.{m}" for m in PROPAGATE_METHODS)
    + tuple(f"spectrum.{m}" for m in SPECTRUM_METHODS)
    + ("degeneracy",)
)

SX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
S_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # basis order (excited, ground)


@dataclass(frozen=True)
class Model:
    """One L-GKS model; ``params`` holds (detuning, drive, decay) for the TLS."""

    hamiltonian: np.ndarray
    jumps: tuple
    params: tuple | None = None
    is_ep: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    models: tuple
    state: np.ndarray
    observables: tuple  # (label, matrix) pairs; also the Heisenberg basis
    ops: tuple
    cluster_tol: float

    @property
    def dim(self) -> int:
        return self.state.shape[0]


def tls_model(detuning: float, drive: float, decay: float = GAMMA, is_ep: bool = False) -> Model:
    """Rotating-frame H = detuning*Sz + drive*Sx with spontaneous emission at ``decay``."""
    return Model(detuning * SZ + drive * SX, ((decay, S_MINUS),), (detuning, drive, decay), is_ep)


def tls_grid(rng: np.random.Generator, per_axis: int) -> list[tuple[float, float]]:
    """Detuning x drive grid: the EP values plus one seeded draw per band."""
    if not 1 <= per_axis <= len(DETUNING_BANDS) + 1:
        raise ValueError(f"tls grid takes 1 to {len(DETUNING_BANDS) + 1} points per axis")
    detunings = [EP_DETUNING] + [rng.uniform(*b) for b in DETUNING_BANDS[: per_axis - 1]]
    drives = [EP_DRIVE] + [rng.uniform(*b) for b in DRIVE_BANDS[: per_axis - 1]]
    return [(d, o) for d in detunings for o in drives]


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_model(rng: np.random.Generator, n: int) -> Model:
    """Gaussian Hermitian H and Gaussian jumps, each scaled to Frobenius norm sqrt(n)."""
    g = _gaussian(rng, n)
    h = 0.5 * (g + g.conj().T)
    h *= np.sqrt(n) / np.linalg.norm(h)
    jumps = []
    for rate in RANDOM_RATES:
        op = _gaussian(rng, n)
        jumps.append((rate, op * (np.sqrt(n) / np.linalg.norm(op))))
    return Model(h, tuple(jumps))


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank density matrix, exactly Hermitian, unit trace."""
    g = _gaussian(rng, n)
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = _gaussian(rng, n)
    x = 0.5 * (g + g.conj().T)
    return x / np.linalg.norm(x)


def matrix_units(n: int) -> tuple:
    """All n^2 matrix units; <e_i_j> = rho[j, i], so the readout is the whole state."""
    units = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            units.append((f"e{i}_{j}", e))
    return tuple(units)


def build(name: str, seed: int, size: int | None = None) -> Workload:
    """The inputs of workload ``name``; ``size`` shrinks it (grid points per axis, or n)."""
    rng = np.random.default_rng(seed)
    if name == "tls-sweep":
        grid = tls_grid(rng, 5 if size is None else size)
        models = tuple(tls_model(d, o, is_ep=(d == EP_DETUNING and o == EP_DRIVE)) for d, o in grid)
        ground = np.array([[0, 0], [0, 1]], dtype=complex)
        obs = (("Sx", SX), ("Sy", SY), ("Sz", SZ), ("I", np.eye(2, dtype=complex)))
        return Workload(name, seed, models, ground, obs, ALL_OPS, 1e-3)
    if name == "dense-n16":
        n = 16 if size is None else size
        model = random_model(rng, n)
        state = random_state(rng, n)
        return Workload(name, seed, (model,), state, matrix_units(n), ALL_OPS, 1e-6)
    if name == "action-n32":
        n = 32 if size is None else size
        models = tuple(random_model(rng, n) for _ in range(ACTION_MODELS))
        state = random_state(rng, n)
        obs = (("I", np.eye(n, dtype=complex)),) + tuple(
            (f"X{k}", random_hermitian(rng, n)) for k in range(1, 5)
        )
        return Workload(name, seed, models, state, obs, ("propagate.expm-action",), 1e-6)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("tls-sweep", "dense-n16", "action-n32")


def _rows(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def write_inputs(workload: Workload, directory: str) -> dict:
    """Write model, state and observables files; return their paths."""
    os.makedirs(directory, exist_ok=True)
    n = workload.dim
    labels = [str(i) for i in range(n)]
    models = []
    for k, model in enumerate(workload.models):
        path = os.path.join(directory, f"model{k}.json")
        _dump(path, {
            "dim": n,
            "basis_labels": labels,
            "hamiltonian": _rows(model.hamiltonian),
            "jumps": [{"rate": rate, "matrix": _rows(op)} for rate, op in model.jumps],
        })
        models.append(path)
    state = os.path.join(directory, "state.json")
    _dump(state, {"dim": n, "basis_labels": labels, "matrix": _rows(workload.state)})
    observables = os.path.join(directory, "observables.json")
    _dump(observables, {
        "dim": n,
        "basis_labels": labels,
        "observables": [{"label": lab, "matrix": _rows(m)} for lab, m in workload.observables],
    })
    return {"models": models, "state": state, "observables": observables}


def op_argv(op: str, model: str, files: dict, cluster_tol: float) -> list[str]:
    """Command line of one CLI operation (without ``--out``)."""
    command, _, method = op.partition(".")
    if command == "propagate":
        return [
            "propagate", model, "--state", files["state"],
            "--observables", files["observables"],
            "--t0", repr(T0), "--t1", repr(T1), "--steps", str(STEPS), "--method", method,
        ]
    if command == "spectrum":
        extra = {"vec": [], "arnoldi": ["--state", files["state"]],
                 "heisenberg": ["--basis", files["observables"]]}[method]
        return ["spectrum", model, "--method", method] + extra
    if command == "degeneracy":
        return ["degeneracy", model, "--cluster-tol", repr(cluster_tol)]
    raise ValueError(f"unknown operation {op!r}")

