"""Shared fixtures and small state constructors for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from discordkit import OptimizerConfig, PureStateVector, QState, _descent
from discordkit._descent import objective_of, solve
from discordkit.correlations import DEFAULT_CONFIG, _measurement_problem, _optimized
from discordkit.entanglement import _roof, _upper_bound
from discordkit.states import haar_random_pure, stream


def bell_vector() -> PureStateVector:
    return PureStateVector((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def bell_state() -> QState:
    return bell_vector().to_density()


def bell_diagonal(weights) -> QState:
    """The mixture of the four Bell states with ``weights`` (Phi+, Phi-, Psi+, Psi-)."""
    bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)
    return QState((2, 2), (bells.T * np.asarray(weights)) @ bells)


def ghz_vector() -> PureStateVector:
    amps = np.zeros(8)
    amps[0] = amps[7] = 1.0 / np.sqrt(2.0)
    return PureStateVector((2, 2, 2), amps)


def haar_unitary(g: np.random.Generator, n: int) -> np.ndarray:
    z = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng() -> np.random.Generator:
    return stream(20260810)


def measurement_objective(state: QState, measured: int, dephasing: bool):
    """The measurement search's objective of V = U^H on ``measured``, and d."""
    problem = _measurement_problem(state, measured, DEFAULT_CONFIG, dephasing)
    return objective_of([problem]), problem.first.shape[0]


def measurement_search(state: QState, measured: int, cfg: OptimizerConfig, dephasing: bool):
    """The measurement search alone: the side's problem with its certificate candidate removed."""
    problem = replace(_measurement_problem(state, measured, cfg, dephasing), candidate=None)
    return _optimized(solve([problem])[0], cfg.tol, measured)


def roof_search(state: QState, partition=None, cfg: OptimizerConfig | None = None):
    """The convex-roof search of ``eof_upper``: its problem with the Wootters candidate removed."""
    problem, e0, oracle = _roof(state, partition, cfg)
    return _upper_bound(solve([replace(problem, candidate=None)])[0], e0, oracle, problem.cfg.tol)


def record_descends(monkeypatch):
    """Patch ``_descent.descend`` to log the block sizes of every call, one tuple per call."""
    calls, descend_alone = [], _descent.descend

    def recording(objective, x, values, egrad, max_iter, sizes=None):
        calls.append(sizes)
        return descend_alone(objective, x, values, egrad, max_iter, sizes)

    monkeypatch.setattr(_descent, "descend", recording)
    return calls


def record_eigensolves(monkeypatch) -> list:
    """Patch ``numpy.linalg.eigh`` and ``eigvalsh`` to log a copy of every input, a stack as one entry."""
    calls = []

    def recording(solver):
        def solve_and_log(a, *args, **kwargs):
            calls.append(np.array(a))
            return solver(a, *args, **kwargs)

        return solve_and_log

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    return calls


def calls_on(calls: list, matrix: np.ndarray) -> int:
    """How many logged eigensolver inputs are ``matrix``, to rounding (its Hermitian part counts)."""
    return sum(a.shape == matrix.shape and np.allclose(a, matrix, rtol=0.0, atol=1e-13) for a in calls)


def near_pure(dims: tuple, weight: float) -> QState:
    """(1 - weight)|psi><psi| + weight|phi><phi|, psi and phi the Haar draws of seeds 3 and 4.

    phi is orthogonalized against psi, so the state's second eigenvalue is ``weight``.
    """
    psi = haar_random_pure(dims, 3).amplitudes
    phi = haar_random_pure(dims, 4).amplitudes
    phi = phi - np.vdot(psi, phi) * psi
    phi = phi / np.linalg.norm(phi)
    return QState(dims, (1.0 - weight) * np.outer(psi, psi.conj()) + weight * np.outer(phi, phi.conj()))
