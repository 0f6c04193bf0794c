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
    purify,
    von_neumann_entropy,
)
from discordkit._descent import CERTIFIED
from discordkit.correlations import CONJECTURE_I_SLACK
from discordkit.measurement import ProjectiveMeasurement, apply_measurement
from discordkit.states import haar_random_pure, random_mixed

from conftest import haar_unitary, measurement_objective, roof_search

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
    # The search alone: eof_upper certifies these states without one.
    roof = roof_search(rotated)
    assert CERTIFIED not in roof.stop_reasons
    assert roof.value == pytest.approx(eof_2qubit(state).value, abs=1e-6)


@PROPERTY
@given(rank=st.integers(1, 4), seed=SEEDS, side=st.integers(0, 1))
def test_eof_upper_certifies_every_two_qubit_state(rank, seed, side):
    # Wootters' decomposition of any two-qubit state, under any local
    # unitary and on either side, meets the exact value and reproduces it.
    state = random_mixed((2, 2), rank, seed)
    g = np.random.default_rng(seed)
    u = np.kron(haar_unitary(g, 2), haar_unitary(g, 2))
    rotated = QState((2, 2), u @ state.matrix @ u.conj().T)
    roof = eof_upper(rotated, ((side,), (1 - side,)))
    assert roof.stop_reasons == (CERTIFIED,)
    assert abs(roof.value - eof_2qubit(rotated).value) <= 1e-12
    np.testing.assert_allclose(roof.decomposition.reconstruct(), rotated.matrix, rtol=0, atol=1e-12)
    assert abs(roof.decomposition.weights.sum() - 1.0) <= 1e-12


@PROPERTY
@given(case=CASES, measured=st.integers(0, 1), seed=SEEDS)
def test_dephasing_objective_is_conditional_plus_outcome_entropy(case, measured, seed):
    # S(dephased) - S(rho) = sum_k p_k S(rho_k) + H(p) - S(rho): the kernel's
    # union branch against its conditional branch.
    dims, rank = case
    state = random_mixed(dims, rank, seed)
    g = np.random.default_rng(seed)
    d = dims[measured]
    bases = np.stack([haar_unitary(g, d) for _ in range(3)])
    conditional, _ = measurement_objective(state, measured, dephasing=False)
    dephasing, _ = measurement_objective(state, measured, dephasing=True)
    v = np.swapaxes(bases.conj(), -1, -2)
    outcome_entropy = []
    for u in bases:
        p = apply_measurement(state, ProjectiveMeasurement(measured, u)).probabilities
        outcome_entropy.append(-np.sum(p * np.log2(p)))
    expected = conditional(v, (3,))[0] + np.array(outcome_entropy) - von_neumann_entropy(state)
    np.testing.assert_allclose(dephasing(v, (3,))[0], expected, rtol=0, atol=1e-12)


@PROPERTY
@given(rank=st.integers(1, 4), seed=SEEDS)
def test_eof_upper_is_never_below_wootters_beyond_the_floor_bias(rank, seed):
    # The eigenvalue floor lowers a 2x2 member's entropy by at most
    # EIG_CLIP / (e ln 2) ~ 5.3e-11 bits, and nothing else can take the roof
    # below the exact value.
    state = random_mixed((2, 2), rank, seed)
    assert eof_upper(state).value >= eof_2qubit(state).value - 5.4e-11


def _pure_abc(kind: str, seed: int) -> QState:
    if kind == "haar_2x2x2":
        return haar_random_pure((2, 2, 2), seed).to_density()
    if kind == "purified_2x3_rank3":
        return purify(random_mixed((2, 3), 3, seed)).to_density()
    return haar_random_pure((3, 2, 3), seed).to_density()


def _ab_and_ac_objectives(abc: QState, seed: int):
    """The AB and AC conditional-entropy objectives on one seeded stack of bases on A."""
    g = np.random.default_rng(seed)
    d = abc.dims[0]
    bases = np.array([np.eye(d)] + [haar_unitary(g, d) for _ in range(8)], dtype=complex)
    values = []
    for pair in ((0, 1), (0, 2)):
        objective, _d = measurement_objective(partial_trace(abc, pair), 0, dephasing=False)
        values.append(objective(np.swapaxes(bases.conj(), -1, -2), (len(bases),))[0])
    return values


@PROPERTY
@given(kind=st.sampled_from(["haar_2x2x2", "purified_2x3_rank3", "haar_3x2x3"]), seed=SEEDS)
def test_ab_and_ac_objectives_agree_basis_by_basis_on_a_pure_abc(kind, seed):
    # A rank-1 measurement on A leaves a pure BC state for each outcome, so
    # S(rho_B^k) = S(rho_C^k): monogamy's J_A(AC) may read the D_A(AB) search.
    ab, ac = _ab_and_ac_objectives(_pure_abc(kind, seed), seed)
    np.testing.assert_allclose(ab, ac, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ab_and_ac_objectives_differ_on_a_mixed_abc(seed):
    # The control: without purity the two objectives are different functions.
    ab, ac = _ab_and_ac_objectives(random_mixed((2, 2, 2), 8, seed), seed)
    assert np.max(np.abs(ab - ac)) > 1e-6
