"""States derived from a valid state: valid by construction, never validated again.

A state built from outside data passes ``qstate.validate``; the maps that
compute a new state from it (``partial_trace``, ``permute_subsystems``,
``apply_measurement``'s conditional states, ``dephase``, and
``re_discord_detailed``'s regrouping of the measured subsystems) build it by
``qstate._derived_state`` without the eigensolver check, and
``PureStateVector.to_density`` checks the trace alone.  These tests check
that the trust is earned on seeded inputs, that a valid input at the edge of
the tolerances is no longer rejected by its own reductions, and that a
``verify`` suite validates each sample at most twice.
"""

import itertools
import sys

import numpy as np
import pytest

from discordkit import (
    InvalidStateError,
    PureStateVector,
    QState,
    correlation_report,
    partial_trace,
    permute_subsystems,
    purify,
    validate,
)
from discordkit._descent import random_isometries
from discordkit.measurement import ProjectiveMeasurement, apply_measurement, dephase
from discordkit.states import StateFamilySpec, haar_random_pure, random_mixed, stream
from discordkit.verify import RELATIONS, run_suite

# Valid inputs whose diagonals sit just inside the -1e-10 positivity bound,
# so that summing diagonal entries in a partial trace crosses it.
EDGE_2X2X2 = np.diag([-0.9e-10] * 4 + [1.0 + 3.6e-10, 0.0, 0.0, 0.0])
EDGE_2X2 = np.diag([-0.9e-10, -0.9e-10, 1.0 + 1.8e-10, 0.0])

MIXED_CASES = [((2, 2), 2), ((2, 2), 4), ((2, 3), 3), ((3, 2), 6), ((2, 2, 2), 3), ((2, 3, 2), 12)]
PURE_DIMS = [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)]


def _inputs():
    """A few hundred seeded inputs: random_mixed densities and haar_pure vectors."""
    for (dims, rank), i in itertools.product(MIXED_CASES, range(30)):
        yield random_mixed(dims, rank, 7100, i)
    for dims, i in itertools.product(PURE_DIMS, range(30)):
        yield haar_random_pure(dims, 7200, i)


def _derived(state: QState, seed: int):
    """Every state the derived-state maps build from ``state``, with one seeded basis per subsystem."""
    n = state.n_subsystems
    for size in range(1, n + 1):
        for keep in itertools.combinations(range(n), size):
            yield partial_trace(state, keep)
    for order in itertools.permutations(range(n)):
        yield permute_subsystems(state, order)
    for k, d in enumerate(state.dims):
        m = ProjectiveMeasurement(k, random_isometries([stream(seed, k)], d, d)[0])
        yield from apply_measurement(state, m).states
        yield dephase(state, m)


def test_every_derived_state_passes_validation():
    checked = 0
    for j, sample in enumerate(_inputs()):
        state = sample.to_density() if isinstance(sample, PureStateVector) else sample
        derived = [state] if isinstance(sample, PureStateVector) else []
        derived += [purify(state).to_density(), *_derived(state, j)]
        for rho in derived:
            assert validate(rho.matrix, rho.dims).ok, (j, rho.dims)
            assert not rho.matrix.flags.writeable
        checked += len(derived)
    assert checked > 5000


def test_to_density_keeps_the_trace_boundary():
    # Norm 1 + 0.8e-10 passes the vector's check; the trace 1 + 1.6e-10 fails
    # the density's, as it did under full validation, and 1 + 0.4e-10 passes.
    with pytest.raises(InvalidStateError, match="trace"):
        PureStateVector((2,), np.array([1.0 + 0.8e-10, 0.0])).to_density()
    assert not validate(np.diag([(1.0 + 0.8e-10) ** 2, 0.0]), (2,)).trace_ok
    rho = PureStateVector((2,), np.array([1.0 + 0.4e-10, 0.0])).to_density()
    assert validate(rho.matrix, rho.dims).ok


def test_derived_states_store_the_computed_matrix_bit_for_bit():
    state = random_mixed((2, 3), 4, 7300)
    t = state.matrix.reshape(2, 3, 2, 3)
    assert np.array_equal(partial_trace(state, (0,)).matrix, np.trace(t, axis1=1, axis2=3))
    assert np.array_equal(partial_trace(state, (0, 1)).matrix, state.matrix)
    assert partial_trace(state, (0, 1)).matrix is not state.matrix


def test_a_valid_edge_input_is_not_rejected_by_its_reductions():
    abc = QState((2, 2, 2), EDGE_2X2X2)
    ab = QState((2, 2), EDGE_2X2)
    # Each full check would fail: the A marginal of abc has eigenvalue -3.6e-10.
    assert validate(partial_trace(abc, (0,)).matrix, (2,)).min_eigenvalue == pytest.approx(-3.6e-10)
    for state in (abc, ab):
        for size in range(1, state.n_subsystems + 1):
            for keep in itertools.combinations(range(state.n_subsystems), size):
                assert partial_trace(state, keep).dims == tuple(state.dims[k] for k in keep)
    for bipartite in (ab, partial_trace(abc, (0, 1)), partial_trace(abc, (1, 2))):
        report = correlation_report(bipartite)
        assert report.d_a == pytest.approx(0.0, abs=1e-9)
        assert report.mutual_information == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("matrix", [EDGE_2X2X2, EDGE_2X2], ids=["2x2x2", "2x2"])
def test_run_suite_accepts_a_valid_edge_input(matrix, monkeypatch):
    state = QState((2,) * int(np.log2(len(matrix))), matrix)
    monkeypatch.setattr(StateFamilySpec, "sample", lambda self, index=0: state)
    report = run_suite(StateFamilySpec("example3"), tuple(RELATIONS), 1)
    assert report.n_fail == 0 and report.n_pass >= 5


@pytest.fixture
def validate_calls(monkeypatch):
    """Count ``validate`` calls in every package module that holds the name."""
    calls = []

    def counting(matrix, dims):
        calls.append(tuple(dims))
        return validate(matrix, dims)

    for name, module in list(sys.modules.items()):
        if name.startswith("discordkit") and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counting)
    return calls


@pytest.mark.parametrize(
    "spec",
    [
        StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": 2}, 1),
        StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": 3}, 1),
        StateFamilySpec("haar_pure", {"dims": (2, 2, 2)}, 1),
    ],
    ids=["2x2-rank2", "2x2-rank3", "pure-2x2x2"],
)
def test_run_suite_validates_a_sample_at_most_twice(spec, validate_calls):
    report = run_suite(spec, tuple(RELATIONS), 1)
    assert report.n_fail == 0
    assert len(validate_calls) <= 2
    QState((2,), np.eye(2) / 2.0)  # the count sees the constructor's check
    assert validate_calls[-1] == (2,)


def test_run_suite_never_validates_a_pure_sample(validate_calls):
    # A pure sample is a vector: to_density checks its trace, and every state
    # the suite builds from it, thm3's regrouped one included, is derived.
    report = run_suite(StateFamilySpec("haar_pure", {"dims": (2, 2, 2)}, 1), tuple(RELATIONS), 1)
    assert report.n_fail == 0
    assert validate_calls == []
