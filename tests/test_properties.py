"""Property tests: invariances and identities of the measures and state operations.

Each property runs on seeded random states drawn by ``hypothesis`` with a
fixed example sequence (``derandomize=True``), so a run is reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordkit import (
    OptimizerConfig,
    QState,
    correlation_report,
    eof_2qubit,
    eof_upper,
    partial_trace,
    permute_subsystems,
)
from discordkit.correlations import CONJECTURE_I_SLACK
from discordkit.states import random_mixed

from conftest import haar_unitary

CFG = OptimizerConfig(restarts=4, seed=0)
CASES = st.sampled_from([((2, 2), 2), ((2, 2), 4), ((2, 3), 3), ((3, 2), 6)])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY = settings(derandomize=True, max_examples=10, deadline=None)


@PROPERTY
@given(case=CASES, seed=SEEDS)
def test_discord_decomposes_information_and_stays_in_bounds(case, seed):
    dims, rank = case
    report = correlation_report(random_mixed(dims, rank, seed), CFG)
    for j, d, s_measured in ((report.j_a, report.d_a, report.s_a), (report.j_b, report.d_b, report.s_b)):
        assert j + d == pytest.approx(report.mutual_information, abs=1e-9)
        assert -1e-9 <= d <= s_measured + CONJECTURE_I_SLACK


@PROPERTY
@given(case=CASES, seed=SEEDS)
def test_discord_and_classical_correlation_invariant_under_local_unitaries(case, seed):
    dims, rank = case
    state = random_mixed(dims, rank, seed)
    g = np.random.default_rng(seed)
    u = np.kron(haar_unitary(g, dims[0]), haar_unitary(g, dims[1]))
    rotated = correlation_report(QState(dims, u @ state.matrix @ u.conj().T), CFG)
    report = correlation_report(state, CFG)
    for name in ("d_a", "d_b", "j_a", "j_b"):
        assert getattr(rotated, name) == pytest.approx(getattr(report, name), abs=2 * CFG.tol)


@PROPERTY
@given(dims=st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=4), seed=SEEDS, data=st.data())
def test_partial_trace_commutes_with_permute_subsystems(dims, seed, data):
    n = len(dims)
    order = data.draw(st.permutations(range(n)))
    keep = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    state = random_mixed(tuple(dims), min(3, int(np.prod(dims))), seed)
    # Permuting and then keeping the same subsystems gives them in the
    # permuted order; keeping first gives them in the original order.
    kept_positions = [k for k in range(n) if order[k] in keep]
    permuted_first = partial_trace(permute_subsystems(state, order), kept_positions)
    kept_first = permute_subsystems(partial_trace(state, keep), [keep.index(order[k]) for k in kept_positions])
    assert permuted_first.dims == kept_first.dims
    np.testing.assert_allclose(permuted_first.matrix, kept_first.matrix, rtol=0, atol=1e-14)


@PROPERTY
@given(rank=st.integers(1, 4), seed=SEEDS)
def test_eof_upper_under_local_unitaries_meets_wootters(rank, seed):
    state = random_mixed((2, 2), rank, seed)
    g = np.random.default_rng(seed)
    u = np.kron(haar_unitary(g, 2), haar_unitary(g, 2))
    rotated = QState((2, 2), u @ state.matrix @ u.conj().T)
    assert eof_upper(rotated).value == pytest.approx(eof_2qubit(state).value, abs=1e-6)
