"""State generators: named states, seeded families, determinism."""

import math
import re

import numpy as np
import pytest

from discordkit import (
    OptimizerConfig,
    QState,
    partial_trace,
    purify,
    purity,
    spectrum,
    validate,
    von_neumann_entropy,
)
from discordkit.states import (
    _FAMILIES,
    FAMILIES,
    StateFamilySpec,
    classical_quantum,
    example3_state,
    flip_operator,
    haar_random_pure,
    random_mixed,
    stream,
    werner_2qubit_example4,
    werner_qudit,
)


def test_flip_operator_swaps():
    f = flip_operator(3)
    v = np.kron(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    w = np.kron(np.array([4.0, 5.0, 6.0]), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(f @ v, w)


def test_werner_flip_expectation():
    for d, x in [(2, 1.0), (2, -0.3), (3, 0.4), (6, -0.9)]:
        state = werner_qudit(d, x)
        assert np.real(np.trace(state.matrix @ flip_operator(d))) == pytest.approx(
            x, abs=1e-9
        )
        diag = validate(state.matrix, state.dims)
        assert diag.hermiticity_error < 1e-9 and diag.trace_error < 1e-9


def test_werner_qubit_eigenvalues_hand_oracle():
    # (1+x)/6 three times on the symmetric sector, (1-x)/2 once
    for x in (-0.8, -0.2, 0.0, 0.5, 1.0):
        w = np.sort(np.linalg.eigvalsh(werner_qudit(2, x).matrix))
        expected = np.sort([(1 + x) / 6] * 3 + [(1 - x) / 2])
        np.testing.assert_allclose(w, expected, atol=1e-12)


def test_werner_extremal_is_symmetric_projector():
    state = werner_qudit(2, 1.0)
    f = flip_operator(2)
    sym = (np.eye(4) + f) / 2.0
    np.testing.assert_allclose(state.matrix, sym / 3.0, atol=1e-12)


def test_werner_permutation_symmetry_exact():
    for d in (2, 3):
        state = werner_qudit(d, -0.4)
        swap = flip_operator(d)
        assert np.array_equal(swap @ state.matrix @ swap, state.matrix)


def test_werner_rejects_bad_parameters():
    with pytest.raises(ValueError):
        werner_qudit(1, 0.0)
    with pytest.raises(ValueError):
        werner_qudit(2, 1.5)


def test_example4_matches_werner_at_solved_flip_expectation():
    ex4 = werner_2qubit_example4()
    x = float(np.real(np.trace(ex4.matrix @ flip_operator(2))))
    assert x == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(ex4.matrix, werner_qudit(2, x).matrix, atol=1e-12)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(ex4.matrix)), [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-12
    )
    for side in ((0,), (1,)):
        np.testing.assert_allclose(
            partial_trace(ex4, side).matrix, np.eye(2) / 2.0, atol=1e-12
        )


def test_example3_matches_termwise_construction():
    # literal term-by-term sum over the (4, 2) product basis
    def ket_a(i, j):
        v = np.zeros(4)
        v[2 * i + j] = 1.0
        return v

    def ket_b(k):
        v = np.zeros(2)
        v[k] = 1.0
        return v

    terms = [
        ((0, 0), (0, 0), 0, 0), ((0, 1), (0, 1), 0, 0),
        ((0, 0), (1, 0), 0, 1), ((0, 1), (1, 1), 0, 1),
        ((1, 0), (0, 0), 1, 0), ((1, 1), (0, 1), 1, 0),
        ((1, 0), (1, 0), 1, 1), ((1, 1), (1, 1), 1, 1),
    ]
    m = np.zeros((8, 8))
    for (bra_a, ket_a_idx, b_ket, b_bra) in terms:
        a_part = np.outer(ket_a(*bra_a), ket_a(*ket_a_idx))
        b_part = np.outer(ket_b(b_ket), ket_b(b_bra))
        m += np.kron(a_part, b_part) / 4.0
    np.testing.assert_allclose(example3_state().matrix, m, atol=1e-12)


def test_example3_properties():
    ex3 = example3_state()
    assert purity(ex3) == pytest.approx(0.5, abs=1e-12)
    assert spectrum(ex3).rank == 2
    rho_bc = partial_trace(purify(ex3).to_density(), (1, 2))
    np.testing.assert_allclose(rho_bc.matrix, np.eye(4) / 4.0, atol=1e-9)


def test_classical_quantum_construction():
    zero = QState((2,), np.diag([1.0, 0.0]))
    plus = QState((2,), np.full((2, 2), 0.5))
    state = classical_quantum([0.5, 0.5], [zero, plus])
    assert state.dims == (2, 2)
    np.testing.assert_allclose(state.matrix[:2, :2], zero.matrix / 2.0)
    np.testing.assert_allclose(state.matrix[2:, 2:], plus.matrix / 2.0)

    product = classical_quantum([1.0, 0.0], [zero, plus])
    np.testing.assert_allclose(product.matrix[:2, :2], zero.matrix)

    same = classical_quantum([0.5, 0.5], [plus, plus])
    np.testing.assert_allclose(
        same.matrix, np.kron(np.eye(2) / 2.0, plus.matrix), atol=1e-12
    )

    with pytest.raises(ValueError):
        classical_quantum([0.7, 0.7], [zero, plus])
    with pytest.raises(ValueError):
        classical_quantum([1.0], [zero, plus])


def test_haar_random_pure_determinism():
    a = haar_random_pure((2, 2), 42)
    b = haar_random_pure((2, 2), 42)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = haar_random_pure((2, 2), 43)
    assert not np.allclose(a.amplitudes, c.amplitudes)
    assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_haar_marginal_entropy_smoke_statistic():
    # sample mean of the marginal entropy over 1000 draws at dims (2, 2);
    # only the (0, 1] range is asserted, the value itself is informational
    total = 0.0
    for i in range(1000):
        vec = haar_random_pure((2, 2), 314, index=i)
        total += von_neumann_entropy(partial_trace(vec.to_density(), (0,)))
    mean = total / 1000.0
    print(f"haar (2,2) mean marginal entropy: {mean:.4f} bits")
    assert 0.0 < mean <= 1.0


def test_random_mixed_ranks():
    pure = random_mixed((2, 2), 1, 7)
    assert purity(pure) == pytest.approx(1.0, abs=1e-9)
    full = random_mixed((2, 2), 4, 8)
    assert spectrum(full).rank == 4
    rank2 = random_mixed((2, 2), 2, 9)
    assert spectrum(rank2).rank == 2
    assert purify(rank2).dims == (2, 2, 2)
    with pytest.raises(ValueError):
        random_mixed((2, 2), 5, 1)
    with pytest.raises(ValueError):
        random_mixed((2, 2), 0, 1)


def test_generators_pass_validation():
    candidates = [
        werner_qudit(3, -0.5),
        werner_2qubit_example4(),
        example3_state(),
        random_mixed((2, 3), 4, 4),
        haar_random_pure((2, 2, 2), 11).to_density(),
        StateFamilySpec("classical_quantum", {"k": 2, "dims": (2,), "rank": 2}, 3).sample(0),
    ]
    for state in candidates:
        diag = validate(state.matrix, state.dims)
        assert diag.hermiticity_error < 1e-9
        assert diag.trace_error < 1e-9
        assert diag.min_eigenvalue > -1e-9


def test_family_spec_sampling_is_deterministic():
    spec = StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": 3}, 123)
    a = spec.sample(5)
    b = spec.sample(5)
    assert np.array_equal(a.matrix, b.matrix)
    c = spec.sample(6)
    assert not np.allclose(a.matrix, c.matrix)


def test_family_spec_json_roundtrip():
    spec = StateFamilySpec("haar_pure", {"dims": (2, 3)}, 9)
    again = StateFamilySpec.from_json(spec.to_json())
    assert again == spec
    assert np.array_equal(spec.sample(2).amplitudes, again.sample(2).amplitudes)


def test_family_spec_validates_parameters():
    with pytest.raises(ValueError):
        StateFamilySpec("nope", {}, 0)
    with pytest.raises(ValueError):
        StateFamilySpec("werner_qudit", {"d": 1, "x": 0.0}, 0)
    with pytest.raises(ValueError):
        StateFamilySpec("werner_qudit", {"d": 2, "x": 3.0}, 0)
    with pytest.raises(ValueError):
        StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": 9}, 0)
    for rank in (0, 3, -1):
        with pytest.raises(ValueError, match=r"classical_quantum rank must be in \[1, 2\]"):
            StateFamilySpec("classical_quantum", {"k": 2, "dims": (2,), "rank": rank}, 0)
    assert StateFamilySpec("classical_quantum", {"k": 2, "dims": (2,)}, 0).sample(0).dims == (2, 2)


def test_orthogonal_classical_quantum_family():
    spec = StateFamilySpec(
        "classical_quantum", {"k": 2, "dims": (2,), "orthogonal": True}, 31
    )
    state = spec.sample(0)
    # classical-classical: both conditional blocks are orthogonal projectors
    top = state.matrix[:2, :2]
    bottom = state.matrix[2:, 2:]
    overlap = np.trace(top @ bottom) / (np.trace(top) * np.trace(bottom))
    assert abs(overlap) < 1e-12


def test_stream_independence():
    a = stream(5, 0).normal(size=4)
    b = stream(5, 1).normal(size=4)
    assert not np.allclose(a, b)
    assert np.array_equal(stream(5, 0).normal(size=4), a)


# One accepted spec per family: every parameter it takes, given.
_EVERY_PARAMETER = {
    "werner_qudit": {"d": 3, "x": 0.3},
    "werner_2qubit": {},
    "example3": {},
    "classical_quantum": {"dims": (2,), "k": 2, "rank": 2, "orthogonal": False},
    "haar_pure": {"dims": (2, 2)},
    "random_mixed": {"dims": (2, 2), "rank": 3},
}


@pytest.mark.parametrize("family", FAMILIES)
def test_a_spec_refuses_an_unknown_or_a_missing_parameter_by_name(family):
    params = _EVERY_PARAMETER[family]
    StateFamilySpec(family, params, 1).sample(0)
    for unknown in ("rnak", *(key for key in ("d", "x", "dims", "rank") if key not in params)):
        with pytest.raises(ValueError, match=rf"^{family} takes no '{unknown}' parameter"):
            StateFamilySpec(family, {**params, unknown: 2}, 1)
    required, _optional, _sampler = _FAMILIES[family]
    for missing in required:
        with pytest.raises(ValueError, match=rf"^{family} requires a '{missing}' parameter$"):
            StateFamilySpec(family, {key: val for key, val in params.items() if key != missing}, 1)


def test_a_spec_keeps_the_parameters_given_and_writes_no_default():
    spec = StateFamilySpec("classical_quantum", {"dims": [2], "rank": np.int64(2)}, 3)
    assert spec.to_json() == {"family": "classical_quantum", "params": {"dims": [2], "rank": 2}, "seed": 3}
    assert type(spec.params["rank"]) is int and spec.params["dims"] == (2,)
    full = StateFamilySpec("classical_quantum", {"dims": (2,), "rank": 2, "k": 2, "orthogonal": False}, 3)
    assert np.array_equal(spec.sample(1).matrix, full.sample(1).matrix)


@pytest.mark.parametrize("x", [None, "0.3", True, False], ids=["none", "string", "true", "false"])
def test_a_spec_refuses_an_x_that_is_not_a_real_number(x):
    # As config._integer refuses a bool for an integer, x refuses a bool, a
    # string and None by name, before any float() conversion.
    with pytest.raises(ValueError, match=rf"^werner_qudit x must be a real number, got {re.escape(repr(x))}$"):
        StateFamilySpec("werner_qudit", {"d": 3, "x": x}, 0)


@pytest.mark.parametrize("x", [1, -1, 0.3, np.float64(-0.25)], ids=["int", "negative-int", "float", "numpy-float"])
def test_a_spec_keeps_a_numeric_x_as_given(x):
    spec = StateFamilySpec("werner_qudit", {"d": 3, "x": x}, 0)
    assert spec.params["x"] is x
    assert spec.to_json() == {"family": "werner_qudit", "params": {"d": 3, "x": x}, "seed": 0}
    assert np.array_equal(spec.sample(0).matrix, werner_qudit(3, float(x)).matrix)


def test_orthogonal_is_checked_at_construction():
    with pytest.raises(ValueError, match=r"orthogonal components need k <= prod\(dims\)"):
        StateFamilySpec("classical_quantum", {"k": 3, "dims": (2,), "orthogonal": True}, 0)
    with pytest.raises(ValueError, match=r"orthogonal components need k <= prod\(dims\)"):
        StateFamilySpec("classical_quantum", {"dims": (1,), "orthogonal": True}, 0)  # k defaults to 2
    for bad in (1, "yes", None):
        with pytest.raises(ValueError, match="classical_quantum orthogonal must be a bool"):
            StateFamilySpec("classical_quantum", {"k": 2, "dims": (2,), "orthogonal": bad}, 0)
    assert StateFamilySpec("classical_quantum", {"k": 2, "dims": (2,), "orthogonal": True}, 0).sample(0).dims == (2, 2)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seeds_outside_64_bits_are_refused_not_aliased(seed):
    for call in (
        lambda: stream(seed),
        lambda: OptimizerConfig(seed=seed),
        lambda: StateFamilySpec("example3", {}, seed),
        lambda: random_mixed((2, 2), 3, seed),
    ):
        with pytest.raises(ValueError, match=r"^seed must be"):
            call()
    with pytest.raises(ValueError, match=r"^index must be"):
        stream(1, seed)
    # The ends of the range stay valid and distinct; so do the benchmark's
    # per-item family seeds.
    top = (1 << 64) - 1
    assert not np.array_equal(stream(top).random(4), stream(0).random(4))
    assert not np.array_equal(stream(0, top).random(4), stream(0).random(4))
    assert StateFamilySpec("haar_pure", {"dims": (2, 2)}, (90210 << 16) + 999).seed == (90210 << 16) + 999
