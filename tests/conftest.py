import warnings

import numpy as np
import pytest

from lindbladmv.model import LindbladModel
from lindbladmv.tls import IDENTITY, SX, SY, SZ

@pytest.fixture(autouse=True)
def runtime_warning_is_an_error():
    """A ``RuntimeWarning`` fails the test that raised it: NumPy's overflow and
    invalid-value warnings, and its ``ComplexWarning`` for an imaginary part
    dropped in a cast to a real dtype."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)


def benchmark_model(rng, n, rates=(1.0, 0.5)):
    """A random model scaled like the benchmark's: Gaussian ``H`` and jumps of Frobenius norm ``sqrt(n)``."""

    def gaussian():
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return g * (np.sqrt(n) / np.linalg.norm(g))

    g = gaussian()
    hamiltonian = 0.5 * (g + g.conj().T)
    hamiltonian *= np.sqrt(n) / np.linalg.norm(hamiltonian)
    return LindbladModel(hamiltonian, tuple((rate, gaussian()) for rate in rates))


def pauli_set():
    return [SX, SY, SZ, IDENTITY]


def multiset_close(actual, expected, tol):
    """Greedy nearest-neighbour pairing of two eigenvalue multisets."""
    actual = list(np.asarray(actual, dtype=complex))
    expected = list(np.asarray(expected, dtype=complex))
    if len(actual) != len(expected):
        return False
    for a in actual:
        j = int(np.argmin([abs(a - e) for e in expected]))
        if abs(a - expected[j]) > tol:
            return False
        expected.pop(j)
    return True


def submultiset_close(subset, superset, tol):
    """True when every element of ``subset`` pairs with a distinct superset element."""
    subset = list(np.asarray(subset, dtype=complex))
    superset = list(np.asarray(superset, dtype=complex))
    if len(subset) > len(superset):
        return False
    for a in subset:
        j = int(np.argmin([abs(a - e) for e in superset]))
        if abs(a - superset[j]) > tol:
            return False
        superset.pop(j)
    return True


def json_rows(matrix):
    """A matrix as the nested ``[re, im]`` rows of the JSON file formats."""
    matrix = np.asarray(matrix, dtype=complex)
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def tls_superop_golden(delta, eps, gamma):
    """The 4x4 vectorized generator of the driven-decaying two-level system.

    Column-stacked basis order (ee, ge, eg, gg); coherences rotate with
    opposite phases (+i*delta on ge, -i*delta on eg).
    """
    e2 = 0.5j * eps
    return np.array(
        [
            [-gamma, -e2, e2, 0.0],
            [-e2, -0.5 * gamma + 1j * delta, 0.0, e2],
            [e2, 0.0, -0.5 * gamma - 1j * delta, -e2],
            [gamma, e2, -e2, 0.0],
        ]
    )


def tls_hessenberg_golden(delta, eps, gamma):
    """Krylov (Gram-Schmidt) matrix from the ground state, for delta, eps > 0."""
    omega2 = 2.0 * delta**2 + eps**2
    omega = np.sqrt(omega2)
    rt2 = np.sqrt(2.0)
    return np.array(
        [
            [0.0, -eps / rt2, eps * gamma / omega, -rt2 * gamma * delta / omega],
            [eps / rt2, -gamma / 2.0, -omega / rt2, 0.0],
            [0.0, omega / rt2, -gamma * (delta**2 + eps**2) / omega2, gamma * delta * eps / (rt2 * omega2)],
            [0.0, 0.0, delta * eps * gamma / (rt2 * omega2), gamma * eps**2 / (2.0 * omega2) - gamma],
        ],
        dtype=complex,
    )


def tls_adjoint_golden(delta, eps, gamma):
    """Coefficient matrix of the adjoint generator on (Sx, Sy, Sz, I)."""
    return np.array(
        [
            [-gamma / 2.0, -delta, 0.0, 0.0],
            [delta, -gamma / 2.0, -eps, 0.0],
            [0.0, eps, -gamma, -gamma / 2.0],
            [0.0, 0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )


def ep_params(gamma=1.0):
    """Parameter point with a third-order non-Hermitian degeneracy at -2*gamma/3."""
    return np.sqrt(1.0 / 108.0) * gamma, np.sqrt(8.0 / 108.0) * gamma, gamma
