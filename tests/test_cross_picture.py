"""The three representations and the matrix-free route give one trajectory.

``vec`` steps the dense exponential of ``U S U^H``; ``expm-action`` runs
the matrix-free :class:`~lindbladmv.model.LiouvilleOperator` through
:func:`~lindbladmv.linalg.expm_action`; the default ``arnoldi`` reduction,
sized by its error estimate at the last time, steps its Hessenberg matrix;
``heisenberg`` propagates the ``n^2`` matrix units ``E_ij``, whose values
``Tr(E_ij rho) = rho_ji`` are the whole state.

The bound on ``||rho_route(t) - rho_vec(t)||_F`` has two parts, with
``eps`` the machine epsilon and ``nu`` the generator's ``norm_bound``:

- Truncation.  The Krylov routes keep their error estimates within
  ``ACTION_RTOL`` times the norm of the state they start from (summed over
  bases for ``expm_action``); ``vec`` and ``heisenberg`` truncate nothing.
  That is the term ``ACTION_RTOL ||rho0||_F``.
- Round-off.  Each route is the exact evolution of a generator perturbed by
  at most ``a eps nu``, from a start and to a readout rounded by at most
  ``b eps ||rho||_F``.  By Duhamel's formula a perturbation ``delta`` of the
  generator moves the state by at most ``M^2 delta t ||rho0||_F``, with
  ``M`` the largest Frobenius-norm gain of ``exp(S s)``; the semigroup
  contracts the trace norm and ``||X||_F <= ||X||_1 <= sqrt(n) ||X||_F``,
  so ``M^2 <= n``.  Two routes then differ by at most
  ``2 (b + n a nu t) eps ||rho0||_F <= c eps (1 + nu t) ||rho0||_F`` with
  ``c = 2 max(b, n a)``.  Scaling and squaring keeps the Pade error of a
  step within one unit roundoff of ``||S dt||``, and the squarings and the
  product with the state each round about once more: ``a = 4``.  The
  coordinate maps, a Krylov or Heisenberg readout and the final products
  round a few times each: ``b = 8``.  For every ``n >= 2``, ``n a >= b``,
  so ``c = 2 max(b, n a) = 8 n``: ``c = 64`` covers ``n <= 8``, and the
  cases at ``n = 16``, 24 and 32 take ``c = 8 n``.

``a`` and ``b`` count roundings; they are not worst-case bounds.  Over 3500
seeded draws of this strategy, half of them at its extremes (``H`` scale 1
and 30, rates 1e-3 and 1, horizons 0.1 and 20), the largest excess of a
route over the truncation term was ``19.4 eps (1 + nu t) ||rho0||_F``, at
``n = 2``.  The deterministic cases at ``n = 16``, 24 and 32 take the
strategy's two extremes, ``H`` scale 1 with horizon 0.1 and ``H`` scale 30
with horizon 20, each with rates 1e-3 and 1.

``propagate`` holds the states of ``vec`` and ``expm-action`` to the
density-matrix checks of ``state_violations``, with the trace budget
``TRACE_RTOL + eps nu t`` of the matrix-free route.  The ``arnoldi`` states
and the ``heisenberg`` matrix-unit states are held to the same checks here.
Over 7500 seeded draws of this strategy, half of them at its extremes, none
failed; the largest trace error was ``27.5 eps (1 + nu t)`` for ``arnoldi``
and ``2.6 eps (1 + nu t)`` for ``heisenberg``.  The ``eps nu t`` term alone
does not cover that; ``TRACE_RTOL`` carries the margin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbladmv.arnoldi import arnoldi_reduce, propagate_reduced
from lindbladmv.heisenberg import close_set, expectations, propagate_expectations
from lindbladmv.linalg import ACTION_RTOL, EPS
from lindbladmv.model import TRACE_RTOL, LindbladModel, random_density, state_violations
from lindbladmv.vectorized import build_superoperator, propagate

#: Round-off constant of the bound for ``n <= 8``, derived in the module docstring.
C_ROUNDOFF = 64.0


def _gaussian(rng, n, scale):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g * (scale / np.linalg.norm(g))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from((2, 2, 2, 3, 3, 4, 5, 6, 7, 8)),
    rates=st.lists(st.floats(1e-3, 1.0), min_size=0, max_size=3),
    h_scale=st.floats(1.0, 30.0),
    horizon=st.floats(0.1, 20.0),
)
def test_four_routes_agree_at_every_time(seed, n, rates, h_scale, horizon):
    _assert_four_routes_agree(seed, n, rates, h_scale, horizon)


@pytest.mark.parametrize("n", [16, 24, 32])
@pytest.mark.parametrize("h_scale, horizon", [(1.0, 0.1), (30.0, 20.0)])
def test_four_routes_agree_up_to_n_32(n, h_scale, horizon):
    _assert_four_routes_agree(n, n, [1e-3, 1.0], h_scale, horizon)


def _assert_four_routes_agree(seed, n, rates, h_scale, horizon):
    rng = np.random.default_rng(seed)
    g = _gaussian(rng, n, 1.0)
    hamiltonian = 0.5 * (g + g.conj().T)
    hamiltonian *= h_scale / np.linalg.norm(hamiltonian)
    model = LindbladModel(hamiltonian, tuple((rate, _gaussian(rng, n, np.sqrt(n))) for rate in rates))
    rho0 = random_density(rng, n).matrix
    times = np.linspace(0.0, horizon, 6)

    reference = np.stack([s.matrix for s in propagate(build_superoperator(model), rho0, times)])
    action = np.stack([s.matrix for s in propagate(model, rho0, times)])
    reduction = arnoldi_reduce(model, rho0, n * n - 1, times[-1])
    assert reduction.estimate <= ACTION_RTOL
    reduced = propagate_reduced(reduction, times)
    rep = close_set(model, np.eye(n * n).reshape(n * n, n, n))
    values = propagate_expectations(rep, expectations(rep.basis, rho0), times)
    heisenberg = values.reshape(-1, n, n).transpose(0, 2, 1)  # Tr(E_ij rho) = rho_ji

    norm0 = np.linalg.norm(rho0)
    nu = model.operator.norm_bound
    c_roundoff = max(C_ROUNDOFF, 8.0 * n)  # c = 8 n, derived in the module docstring
    bound = ACTION_RTOL * norm0 + c_roundoff * EPS * (1.0 + nu * times) * norm0
    for route in (action, reduced, heisenberg):
        assert (np.linalg.norm(route - reference, axis=(1, 2)) <= bound).all()
    # the arnoldi and heisenberg states, which propagate does not make, pass its state checks too
    budget = TRACE_RTOL + EPS * nu * times
    for states in (reduced, heisenberg):
        assert state_violations(states, budget) == {}
