"""Measurement representations, application, and dephasing."""

import math

import numpy as np
import pytest

from discordkit import (
    POVM,
    ProjectiveMeasurement,
    QState,
    apply_measurement,
    avg_conditional_entropy,
    dephase,
    partial_trace,
    projective_from_params,
    purify,
    tensor,
    von_neumann_entropy,
)
from discordkit.measurement import OutcomeEnsemble, n_measurement_params, unitary_from_params
from discordkit.states import (
    classical_quantum,
    random_mixed,
    stream,
    werner_2qubit_example4,
)

from conftest import bell_state, haar_unitary


def _random_params(g, d):
    n = n_measurement_params(d)
    return np.concatenate(
        [g.uniform(0, np.pi / 2, size=n // 2), g.uniform(0, 2 * np.pi, size=n // 2)]
    )


def test_params_length_check():
    with pytest.raises(ValueError):
        unitary_from_params(2, [0.1])
    with pytest.raises(ValueError):
        projective_from_params(3, np.zeros(4))


def test_batched_unitaries_equal_single_calls(rng):
    for d in (2, 3, 6):
        params = np.stack([_random_params(rng, d) for _ in range(20)])
        stacked = np.stack([unitary_from_params(d, p) for p in params])
        batched = unitary_from_params(d, params)
        assert batched.shape == (20, d, d)
        assert np.array_equal(batched, stacked)
        assert np.array_equal(unitary_from_params(d, params.reshape(4, 5, -1)), stacked.reshape(4, 5, d, d))


def test_computational_basis_at_zero_params():
    m = projective_from_params(2, (0.0, 0.0))
    np.testing.assert_allclose(m.basis, np.eye(2), atol=1e-15)


def test_hadamard_type_basis():
    m = projective_from_params(2, (np.pi / 4, 0.0))
    overlap = abs(m.basis[0, 0]) ** 2
    assert overlap == pytest.approx(0.5, abs=1e-12)


def test_unitarity_for_random_params(rng):
    for d in (2, 3, 4):
        for _ in range(5):
            u = unitary_from_params(d, _random_params(rng, d))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)


def test_basis_covers_arbitrary_directions(rng):
    # a qubit basis aligned with any Bloch direction is reachable
    theta, phi = 0.7, 2.1
    m = projective_from_params(2, (theta, phi))
    expected = np.array([math.cos(theta), math.sin(theta) * np.exp(-1j * phi)])
    np.testing.assert_allclose(m.basis[:, 0], expected, atol=1e-12)


def test_projective_validation():
    with pytest.raises(ValueError):
        ProjectiveMeasurement(0, np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="basis must be square"):
        ProjectiveMeasurement(0, np.eye(3)[:, :2])


def test_projective_rejects_a_nan_basis():
    # The unitarity residual is then NaN, which compares false with any bound.
    with pytest.raises(ValueError, match="unitarity"):
        ProjectiveMeasurement(0, np.full((2, 2), np.nan))


def test_povm_validation():
    half = np.eye(2) / 2.0
    povm = POVM(0, (half, half))
    assert povm.d == 2
    with pytest.raises(ValueError):
        POVM(0, (half,))  # does not sum to identity
    with pytest.raises(ValueError):
        POVM(0, (np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])))  # not PSD
    with pytest.raises(ValueError, match="at least one element"):
        POVM(0, ())
    with pytest.raises(ValueError, match="share one dimension"):
        POVM(0, (half, np.eye(3) / 2.0))


def test_povm_rejects_nan_elements():
    # NaN residuals compare false with any bound; the conditional states are
    # not validated again, so the POVM itself must refuse them.
    nan = np.full((2, 2), np.nan)
    for elements in ((nan, np.eye(2) - nan), (np.diag([np.nan, 0.0]), np.diag([0.0, 1.0]))):
        with pytest.raises(ValueError, match="Hermitian"):
            POVM(0, elements)


def test_apply_measurement_product_state():
    sigma = random_mixed((2,), 2, 21)
    prod = tensor(QState((2,), np.eye(2) / 2.0), sigma)
    ens = apply_measurement(prod, projective_from_params(2, (0.3, 1.2)))
    assert ens.n_outcomes == 2
    for state in ens.states:
        np.testing.assert_allclose(state.matrix, sigma.matrix, atol=1e-10)


def test_apply_measurement_bell_computational():
    ens = apply_measurement(bell_state(), projective_from_params(2, (0.0, 0.0)))
    np.testing.assert_allclose(ens.probabilities, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(ens.states[0].matrix, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(ens.states[1].matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_apply_measurement_classical_quantum_recovers_components():
    zero = QState((2,), np.diag([1.0, 0.0]))
    plus = QState((2,), np.full((2, 2), 0.5))
    state = classical_quantum([0.3, 0.7], [zero, plus])
    ens = apply_measurement(state, projective_from_params(2, (0.0, 0.0)))
    np.testing.assert_allclose(ens.probabilities, [0.3, 0.7], atol=1e-12)
    np.testing.assert_allclose(ens.states[0].matrix, zero.matrix, atol=1e-12)
    np.testing.assert_allclose(ens.states[1].matrix, plus.matrix, atol=1e-12)


def test_apply_measurement_drops_zero_probability_outcomes():
    pure0 = QState((2,), np.diag([1.0, 0.0]))
    joint = tensor(pure0, QState((2,), np.eye(2) / 2.0))
    ens = apply_measurement(joint, projective_from_params(2, (0.0, 0.0)))
    assert ens.n_outcomes == 1
    assert ens.probabilities[0] == pytest.approx(1.0, abs=1e-12)


def test_apply_measurement_povm():
    # trine-like 3-element POVM on a qubit
    vecs = [
        np.array([1.0, 0.0]),
        np.array([0.5, math.sqrt(3) / 2]),
        np.array([0.5, -math.sqrt(3) / 2]),
    ]
    elements = tuple((2.0 / 3.0) * np.outer(v, v.conj()) for v in vecs)
    povm = POVM(0, elements)
    state = tensor(QState((2,), np.eye(2) / 2.0), QState((2,), np.eye(2) / 2.0))
    ens = apply_measurement(state, povm)
    np.testing.assert_allclose(ens.probabilities, [1 / 3] * 3, atol=1e-12)


def test_avg_conditional_entropy_example4_hand_oracle():
    # conditional spectra are {1/3, 2/3} for both outcomes
    ens = apply_measurement(werner_2qubit_example4(), projective_from_params(2, (0.0, 0.0)))
    expected = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert avg_conditional_entropy(ens) == pytest.approx(expected, abs=1e-12)


def test_avg_conditional_entropy_relabeling_invariance(rng):
    state = random_mixed((2, 2), 4, 33)
    m = projective_from_params(2, (0.7, 0.4))
    base = avg_conditional_entropy(apply_measurement(state, m))
    relabeled = ProjectiveMeasurement(0, m.basis[:, [1, 0]])
    flipped = avg_conditional_entropy(apply_measurement(state, relabeled))
    assert flipped == base  # exact, fsum-based


def test_dephase_fixed_point_and_idempotence():
    diag = QState((2, 2), np.diag([0.4, 0.3, 0.2, 0.1]))
    comp = projective_from_params(2, (0.0, 0.0))
    assert np.array_equal(dephase(diag, comp).matrix, diag.matrix)

    state = random_mixed((2, 2), 4, 44)
    m = projective_from_params(2, (0.9, 0.8))
    once = dephase(state, m)
    twice = dephase(once, m)
    np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)


def test_dephase_trace_preserving_and_entropy_nondecreasing(rng):
    for i in range(100):
        state = random_mixed((2, 2), 1 + i % 4, 2000 + i)
        m = projective_from_params(2, _random_params(rng, 2), subsystem=i % 2)
        out = dephase(state, m)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert von_neumann_entropy(out) >= von_neumann_entropy(state) - 1e-9


def test_dephase_rejects_povm():
    povm = POVM(0, (np.eye(2) / 2.0, np.eye(2) / 2.0))
    with pytest.raises(TypeError):
        dephase(bell_state(), povm)


def test_a_measurement_of_the_wrong_dimension_or_kind_is_refused():
    # A (2, 3) state measured on its qubit by a qutrit basis or POVM.
    state = random_mixed((2, 3), 2, 5)
    qutrit = ProjectiveMeasurement(0, np.eye(3))
    with pytest.raises(ValueError, match="measurement dimension 3 does not match subsystem dimension 2"):
        apply_measurement(state, qutrit)
    with pytest.raises(ValueError, match="measurement dimension 3 does not match subsystem dimension 2"):
        dephase(state, qutrit)
    with pytest.raises(ValueError, match="POVM dimension 3 does not match subsystem dimension 2"):
        apply_measurement(state, POVM(0, (np.eye(3) / 2.0, np.eye(3) / 2.0)))
    with pytest.raises(TypeError, match="unsupported measurement type ndarray"):
        apply_measurement(state, np.eye(2))


@pytest.mark.parametrize(
    "probabilities, n_states, message",
    [([0.5, 0.5], 1, "matching lengths"), ([], 0, "at least one outcome"), ([1.0, 0.0], 2, "must be positive"),
     ([math.nan, math.nan], 2, "must be positive"), ([1.0, math.nan], 2, "must be positive")],
    ids=["mismatched", "empty", "zero-probability", "nan-probabilities", "one-nan-probability"],
)
def test_outcome_ensemble_validation(probabilities, n_states, message):
    with pytest.raises(ValueError, match=message):
        OutcomeEnsemble(probabilities, (QState((2,), np.eye(2) / 2.0),) * n_states)


def test_probabilities_match_dephased_diagonal_blocks(rng):
    state = random_mixed((2, 3), 5, 55)
    m = projective_from_params(2, _random_params(rng, 2), subsystem=0)
    ens = apply_measurement(state, m)
    dep = dephase(state, m)
    t = dep.matrix.reshape(2, 3, 2, 3)
    for k in range(2):
        b = m.basis[:, k]
        block = np.einsum("a,arbs,b->rs", b.conj(), t, b)
        assert np.trace(block).real == pytest.approx(ens.probabilities[k], abs=1e-9)


def test_pure_tripartite_conditionals_have_equal_marginal_entropies(rng):
    for i in range(10):
        abc = purify(random_mixed((2, 2), 2, 3000 + i)).to_density()
        m = projective_from_params(2, _random_params(rng, 2), subsystem=0)
        ens = apply_measurement(abc, m)
        for state in ens.states:
            s_b = von_neumann_entropy(partial_trace(state, (0,)))
            s_c = von_neumann_entropy(partial_trace(state, (1,)))
            assert s_b == pytest.approx(s_c, abs=1e-9)


def test_measured_subsystem_position_independent():
    state = random_mixed((3, 2), 4, 66)
    m = projective_from_params(2, (0.5, 0.3), subsystem=1)
    ens = apply_measurement(state, m)
    assert ens.states[0].dims == (3,)
    assert ens.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
