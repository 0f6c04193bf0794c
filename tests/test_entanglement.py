"""Entanglement of formation: pure, Wootters, and convex-roof routes."""

import math

import numpy as np
import pytest

from discordkit import (
    InvalidStateError,
    OptimizerConfig,
    QState,
    concurrence_2qubit,
    eof_2qubit,
    eof_pure,
    eof_upper,
    partial_trace,
    purify,
    spectrum,
    tensor,
    von_neumann_entropy,
)
from discordkit import entanglement
from discordkit.entanglement import (
    _PAIR_PHIS,
    _PAIR_THETAS,
    EXACT_PURE,
    EXACT_WOOTTERS,
    UPPER_BOUND,
    _batch_contributions,
    _random_isometry,
    _roof_round,
    _roof_sweeps,
    _round_robin,
    binary_entropy,
)
from discordkit.states import (
    example3_state,
    haar_random_pure,
    random_mixed,
    stream,
)

from conftest import bell_state, bell_vector, haar_unitary


def _werner_mix(p: float) -> QState:
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return QState((2, 2), p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4.0)


def test_eof_pure_values():
    assert eof_pure(bell_vector()).value == pytest.approx(1.0, abs=1e-12)
    assert eof_pure(bell_vector()).tag == EXACT_PURE

    product = np.kron(np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2))
    from discordkit import PureStateVector

    assert eof_pure(PureStateVector((2, 2), product)).value == pytest.approx(0.0, abs=1e-12)

    vec = haar_random_pure((2, 3), 5)
    marginal = partial_trace(vec.to_density(), (0,))
    assert eof_pure(vec).value == pytest.approx(von_neumann_entropy(marginal), abs=1e-10)


def test_eof_pure_rejects_mixed_density():
    with pytest.raises(InvalidStateError):
        eof_pure(random_mixed((2, 2), 2, 3))
    # a pure density matrix is accepted
    assert eof_pure(bell_state()).value == pytest.approx(1.0, abs=1e-9)


def test_concurrence_values():
    assert concurrence_2qubit(bell_state()) == pytest.approx(1.0, abs=1e-9)
    product = tensor(QState((2,), np.diag([1.0, 0.0])), QState((2,), np.eye(2) / 2.0))
    assert concurrence_2qubit(product) == 0.0
    with pytest.raises(ValueError):
        concurrence_2qubit(QState((4,), np.eye(4) / 4.0))


def test_concurrence_werner_closed_form():
    # mixing a singlet with weight p into white noise: C = max(0, (3p-1)/2)
    for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence_2qubit(_werner_mix(p)) == pytest.approx(expected, abs=1e-10)


def test_example4_concurrence_exactly_zero():
    from discordkit.states import werner_2qubit_example4

    assert concurrence_2qubit(werner_2qubit_example4()) == 0.0


def test_eof_2qubit_scalar_oracle():
    assert eof_2qubit(bell_state()).value == pytest.approx(1.0, abs=1e-9)
    assert eof_2qubit(_werner_mix(0.0)).value == 0.0
    # C = 0.5 scalar cross-check
    c = 0.5
    expected = binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
    found = None
    for p in np.linspace(1 / 3, 1.0, 2001):
        if abs(concurrence_2qubit(_werner_mix(p)) - 0.5) < 2e-4:
            found = eof_2qubit(_werner_mix(p)).value
            break
    assert found == pytest.approx(expected, abs=1e-3)
    assert eof_2qubit(bell_state()).tag == EXACT_WOOTTERS


def test_eof_2qubit_matches_eof_pure_on_pure_inputs():
    for i in range(10):
        rho = haar_random_pure((2, 2), 100 + i).to_density()
        assert eof_2qubit(rho).value == pytest.approx(eof_pure(rho).value, abs=1e-9)


def test_eof_upper_collapses_on_pure_input():
    rho = haar_random_pure((2, 2), 7).to_density()
    roof = eof_upper(rho)
    assert roof.tag == UPPER_BOUND
    assert roof.value == pytest.approx(eof_pure(rho).value, abs=1e-9)


def test_eof_upper_separable_states():
    g = stream(321)
    for i in range(5):
        # random separable: mixture of four product states
        probs = g.dirichlet(np.ones(4))
        m = np.zeros((4, 4), dtype=complex)
        for w in probs:
            za = g.normal(size=2) + 1j * g.normal(size=2)
            zb = g.normal(size=2) + 1j * g.normal(size=2)
            v = np.kron(za / np.linalg.norm(za), zb / np.linalg.norm(zb))
            m += w * np.outer(v, v.conj())
        state = QState((2, 2), m)
        assert eof_2qubit(state).value <= 1e-9
        assert eof_upper(state).value <= 1e-3


def test_eof_upper_example3_environment_pair():
    rho_bc = partial_trace(purify(example3_state()).to_density(), (1, 2))
    roof = eof_upper(rho_bc)
    assert roof.value <= 1e-6
    assert eof_2qubit(rho_bc).value == 0.0


def test_eof_upper_never_undercuts_wootters():
    for i in range(30):
        state = random_mixed((2, 2), 1 + i % 4, 5000 + i)
        roof = eof_upper(state)
        assert roof.crosscheck_gap is not None
        assert roof.crosscheck_gap >= -1e-6
        assert roof.crosscheck_gap <= 5e-3


def test_eof_upper_witness_reconstructs_state():
    state = random_mixed((2, 2), 3, 31)
    roof = eof_upper(state)
    witness = roof.decomposition
    assert witness is not None
    np.testing.assert_allclose(witness.reconstruct(), state.matrix, atol=1e-8)
    assert witness.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_eof_invariant_under_local_unitaries(rng):
    for i in range(5):
        state = random_mixed((2, 2), 2, 6000 + i)
        u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        rotated = QState((2, 2), u @ state.matrix @ u.conj().T)
        # Wootters path: exact
        assert eof_2qubit(rotated).value == pytest.approx(eof_2qubit(state).value, abs=1e-9)
        # roof path: estimator-level agreement (twice the roof accuracy budget)
        assert abs(eof_upper(rotated).value - eof_upper(state).value) <= 1e-2


def test_eof_zero_for_product_states():
    prod = tensor(random_mixed((2,), 2, 8), random_mixed((2,), 2, 9))
    assert eof_2qubit(prod).value <= 1e-6
    assert eof_upper(prod).value <= 1e-6


def test_eof_upper_partition_validation():
    state = random_mixed((2, 2), 2, 10)
    with pytest.raises(ValueError):
        eof_upper(state, ((0,), (0, 1)))


def test_upper_bound_tag_never_exact():
    roof = eof_upper(random_mixed((2, 2), 2, 11))
    assert roof.tag == UPPER_BOUND
    assert not roof.exact


def test_round_robin_schedule_covers_each_pair_once():
    for m in range(1, 18):
        rounds = _round_robin(m)
        seen = []
        for ii, jj in rounds:
            members = np.concatenate([ii, jj])
            assert len(set(members.tolist())) == members.size  # disjoint within a round
            assert np.all(ii < jj)
            seen.extend(zip(ii.tolist(), jj.tolist()))
        assert sorted(seen) == [(i, j) for i in range(m) for j in range(i + 1, m)]
        assert len(rounds) == (0 if m == 1 else m - 1 + m % 2)


def _reference_contributions(vectors, da, db):
    out = []
    for v in vectors:
        m = v.reshape(da, db)
        mu = np.clip(np.linalg.eigvalsh(m @ m.conj().T), 0.0, None)
        p = mu.sum()
        pos = mu[mu > 0.0] / p
        out.append(-p * float((pos * np.log2(pos)).sum()))
    return np.array(out)


@pytest.mark.parametrize("dims", [(3, 2), (4, 2), (2, 3), (3, 4)])
def test_batch_contributions_smaller_gram_side(dims):
    g = stream(77, 10 * dims[0] + dims[1])
    d = dims[0] * dims[1]
    vectors = (g.normal(size=(40, d)) + 1j * g.normal(size=(40, d))) * g.uniform(0.05, 1.0, (40, 1))
    got = _batch_contributions(vectors, dims, (0,), (1,))
    np.testing.assert_allclose(got, _reference_contributions(vectors, *dims), rtol=0, atol=1e-12)


def _grid(windows):
    th = np.repeat(_PAIR_THETAS * np.asarray(windows)[:, None], _PAIR_PHIS.size, axis=1)
    return np.cos(th), np.sin(th), np.tile(np.exp(1j * _PAIR_PHIS), _PAIR_THETAS.size)


@pytest.mark.parametrize("dims, rank", [((2, 2), 4), ((3, 3), 3)])
def test_batched_round_equals_pairs_one_at_a_time(dims, rank):
    # Two restarts at different theta windows: a grid row given to the wrong
    # restart changes the result.
    state = random_mixed(dims, rank, 12)
    sp = spectrum(state)
    e0 = (sp.eigenvectors[:, :rank] * np.sqrt(sp.eigenvalues[:rank])).T
    m = rank * rank
    iso = np.stack([_random_isometry(stream(12, k), m, rank) for k in (1, 2)])
    windows = (0.3, 1.2)
    parts = ((0,), (1,))
    batched = [iso @ e0, iso.copy()]
    batched.append(_batch_contributions(batched[0].reshape(2 * m, -1), dims, *parts).reshape(2, m))
    single = [a.copy() for a in batched]
    gain_batched, gain_single = np.zeros(2), np.zeros(2)
    for ii, jj in _round_robin(m):
        gain_batched += _roof_round(*batched, ii, jj, _grid(windows), dims, *parts)
        for r, window in enumerate(windows):
            stack = [a[r : r + 1] for a in single]
            for k in range(ii.size):
                pair = (ii[k : k + 1], jj[k : k + 1])
                gain_single[r] += _roof_round(*stack, *pair, _grid([window]), dims, *parts)[0]
    assert np.all(gain_batched > 0.0)
    np.testing.assert_allclose(gain_batched, gain_single, rtol=0, atol=1e-12)
    for got, want in zip(batched, single):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("restarts", [3, 16])
@pytest.mark.parametrize(
    "dims, rank, seed, index, max_sweeps",
    [((2, 2), 4, 1, 4, 40), ((3, 2), 3, 2, 0, 40), ((2, 3), 6, 3, 0, 10)],
    ids=["2x2-rank4", "3x2-rank3", "2x3-rank6"],
)
def test_lockstep_restarts_equal_restarts_run_alone(
    monkeypatch, dims, rank, seed, index, max_sweeps, restarts
):
    # Every rank-6 restart runs to the sweep cap, so a lower cap keeps that case short.
    monkeypatch.setattr(entanglement, "_MAX_SWEEPS", max_sweeps)
    state = random_mixed(dims, rank, seed, index)
    cfg = OptimizerConfig(restarts=restarts)
    roof = eof_upper(state, cfg=cfg)

    sp = spectrum(state)
    e0 = (sp.eigenvectors[:, :rank] * np.sqrt(sp.eigenvalues[:rank])).T
    m = rank * rank
    finals, sweeps, converged, isos = [], [], [], []
    for k in range(restarts):
        iso = np.eye(m, dtype=complex)[:, :rank] if k == 0 else _random_isometry(stream(0, k), m, rank)
        iso = iso[None].copy()
        psi = iso @ e0
        contrib = _batch_contributions(psi[0], dims, (0,), (1,))[None]
        used, done = _roof_sweeps(psi, iso, contrib, dims, (0,), (1,), cfg.tol)
        finals.append(contrib.sum())
        sweeps.append(int(used[0]))
        converged.append(bool(done[0]))
        isos.append(iso[0])
    if (dims, restarts) == ((2, 2), 3):
        assert len(set(sweeps)) == 3  # the restarts leave after different sweeps
    best = int(np.argmin(finals))
    assert roof.sweeps == tuple(sweeps)
    assert roof.converged == all(converged)
    assert roof.value == pytest.approx(finals[best], abs=1e-12)
    assert roof.restart_spread == pytest.approx(max(finals) - min(finals), abs=1e-12)
    np.testing.assert_allclose(roof.decomposition.isometry, isos[best], rtol=0, atol=1e-12)
    others = [k for k in range(restarts) if k != best]
    assert all(np.abs(isos[k] - isos[best]).max() > 1e-6 for k in others)


def test_eof_upper_convergence_diagnostics(monkeypatch):
    state = random_mixed((2, 2), 4, 8001)
    roof = eof_upper(state)
    assert roof.converged is True
    assert len(roof.sweeps) == 3 and all(1 <= s < entanglement._MAX_SWEEPS for s in roof.sweeps)
    monkeypatch.setattr(entanglement, "_MAX_SWEEPS", 1)
    capped = eof_upper(state)
    assert capped.converged is False
    assert capped.sweeps == (1, 1, 1)
