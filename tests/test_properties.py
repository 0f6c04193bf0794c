"""Property tests for the correlation measures: invariances and identities.

Each property runs on seeded random states drawn by ``hypothesis`` with a
fixed example sequence (``derandomize=True``), so a run is reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordkit import OptimizerConfig, QState, correlation_report
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
