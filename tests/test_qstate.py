"""Density-matrix algebra: validation, reductions, entropies, purification."""

import math

import numpy as np
import pytest

from discordkit import (
    POVM,
    InvalidStateError,
    OptimizerConfig,
    ProjectiveMeasurement,
    PureStateVector,
    QState,
    StateFamilySpec,
    conditional_entropy,
    dephase,
    discord,
    haar_random_pure,
    partial_trace,
    permute_subsystems,
    purify,
    purity,
    re_discord,
    spectrum,
    state_from_json,
    state_to_json,
    tensor,
    validate,
    von_neumann_entropy,
    werner_qudit,
)
from discordkit.measurement import _measurement_factor, unitary_from_params
from discordkit.qstate import _decomposition, _ensemble_objective, _gram_spectrum, normalize_partition
from discordkit.states import example3_state, random_mixed, stream, werner_2qubit_example4

from conftest import bell_state, bell_vector, calls_on, ghz_vector, haar_unitary, record_eigensolves


def test_validate_flags_residuals():
    diag = validate(np.eye(2) / 2.0, (2,))
    assert diag.ok and diag.hermiticity_error < 1e-12

    trace2 = validate(np.eye(2), (2,))
    assert not trace2.trace_ok and trace2.hermitian_ok

    bad_psd = validate(np.diag([1.0 + 1e-6, -1e-6]), (2,))
    assert not bad_psd.psd_ok and bad_psd.trace_ok

    bell = validate(bell_state().matrix, (2, 2))
    assert bell.hermiticity_error < 1e-12
    assert bell.trace_error < 1e-12
    assert bell.min_eigenvalue > -1e-12


def test_validate_dimension_mismatch():
    with pytest.raises(ValueError):
        validate(np.eye(4) / 4.0, (2, 3))
    with pytest.raises(ValueError):
        validate(np.stack([np.eye(4) / 4.0] * 2), (2, 3))


def test_validate_reports_the_worst_member_of_a_stack():
    good = np.stack([np.eye(2) / 2.0, np.diag([0.9, 0.1])])
    assert validate(good, (2,)).ok
    assert validate(good, (2,)).min_eigenvalue == validate(good[1], (2,)).min_eigenvalue
    bad = {
        "hermitian_ok": np.array([[0.5, 0.5], [-0.5, 0.5]]),
        "trace_ok": np.eye(2),
        "psd_ok": np.diag([1.0 + 1e-6, -1e-6]),
    }
    for check, matrix in bad.items():
        for where in range(3):
            stack = np.insert(good, where, matrix, axis=0)
            diag = validate(stack, (2,))
            assert not diag.ok
            assert [name for name in bad if not getattr(diag, name)] == [check]
    assert validate(np.stack([good, good]), (2,)).ok  # any leading axes


def test_qstate_rejects_invalid():
    with pytest.raises(InvalidStateError):
        QState((2,), np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        QState((2,), np.eye(2))  # trace 2
    with pytest.raises(InvalidStateError):
        QState((2,), np.diag([1.0 + 1e-6, -1e-6]))  # eigenvalue -1e-6


def test_qstate_matrix_is_immutable():
    state = bell_state()
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 1.0


def test_pure_vector_norm_check():
    with pytest.raises(InvalidStateError):
        PureStateVector((2,), np.array([1.0, 1.0]))
    with pytest.raises(InvalidStateError):
        PureStateVector((2, 2), np.array([np.nan, 0.0, 0.0, 1.0]))
    vec = bell_vector()
    assert purity(vec.to_density()) == pytest.approx(1.0, abs=1e-9)


def test_tensor_identity_and_embedding(rng):
    half = QState((2,), np.eye(2) / 2.0)
    prod = tensor(half, half)
    assert prod.dims == (2, 2)
    np.testing.assert_allclose(prod.matrix, np.eye(4) / 4.0, atol=1e-15)

    sigma = random_mixed((2,), 2, 5)
    p0 = QState((2,), np.diag([1.0, 0.0]))
    embedded = tensor(p0, sigma)
    np.testing.assert_allclose(embedded.matrix[:2, :2], sigma.matrix, atol=1e-15)
    np.testing.assert_allclose(embedded.matrix[2:, 2:], 0.0, atol=1e-15)


def test_tensor_partial_trace_roundtrip():
    # tracing out the second factor recovers the first for random pairs
    for i in range(100):
        a = random_mixed((2,), 2, 100 + i)
        b = random_mixed((3,), 3, 200 + i)
        joint = tensor(a, b)
        back = partial_trace(joint, (0,))
        np.testing.assert_allclose(back.matrix, a.matrix, atol=1e-12)
        np.testing.assert_allclose(
            partial_trace(joint, (1,)).matrix, b.matrix, atol=1e-12
        )


def test_partial_trace_reference_values():
    assert np.allclose(partial_trace(bell_state(), (0,)).matrix, np.eye(2) / 2.0)
    ex3 = example3_state()
    np.testing.assert_allclose(partial_trace(ex3, (1,)).matrix, np.eye(2) / 2.0, atol=1e-12)
    np.testing.assert_allclose(partial_trace(ex3, (0,)).matrix, np.eye(4) / 4.0, atol=1e-12)


def test_partial_trace_preserves_trace_and_rejects_bad_keep():
    state = random_mixed((2, 2, 2), 8, 3)
    reduced = partial_trace(state, (0, 2))
    assert reduced.dims == (2, 2)
    assert np.trace(reduced.matrix) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        partial_trace(state, ())
    with pytest.raises(ValueError):
        partial_trace(state, (3,))


def test_entropy_reference_values():
    assert von_neumann_entropy(QState((2,), np.eye(2) / 2.0)) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(bell_state()) == pytest.approx(0.0, abs=1e-12)
    ex3 = example3_state()
    assert von_neumann_entropy(partial_trace(ex3, (0,))) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(ex3) == pytest.approx(1.0, abs=1e-12)
    # hand eigendecomposition: {1/6, 1/6, 1/6, 1/2}
    expected = -3.0 * (1.0 / 6.0) * math.log2(1.0 / 6.0) - 0.5 * math.log2(0.5)
    assert von_neumann_entropy(werner_2qubit_example4()) == pytest.approx(expected, abs=1e-12)
    assert abs(expected - 1.7925) < 1e-4


def test_entropy_range():
    for i in range(20):
        state = random_mixed((2, 3), 4, 400 + i)
        s = von_neumann_entropy(state)
        assert 0.0 <= s <= math.log2(6) + 1e-12


def test_conditional_entropy():
    g = np.random.Generator(np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
    sigma_a = random_mixed((2,), 2, 11)
    sigma_b = random_mixed((2,), 2, 12)
    prod = tensor(sigma_a, sigma_b)
    assert conditional_entropy(prod, 1, 0) == pytest.approx(
        von_neumann_entropy(sigma_b), abs=1e-10
    )
    assert conditional_entropy(bell_state(), 1, 0) == pytest.approx(-1.0, abs=1e-10)
    assert conditional_entropy(example3_state(), 1, 0) == pytest.approx(-1.0, abs=1e-10)
    with pytest.raises(ValueError):
        conditional_entropy(bell_state(), 0, 0)


def test_purity_values():
    assert purity(bell_state()) == pytest.approx(1.0, abs=1e-12)
    assert purity(QState((2, 2), np.eye(4) / 4.0)) == pytest.approx(0.25, abs=1e-12)
    assert purity(example3_state()) == pytest.approx(0.5, abs=1e-12)


def test_spectrum_descending_and_reconstruction():
    for i in range(20):
        state = random_mixed((2, 2), 3, 500 + i)
        sp = spectrum(state)
        assert np.all(np.diff(sp.eigenvalues) <= 1e-15)
        assert sp.eigenvalues.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(sp.reconstruct(), state.matrix, atol=1e-8)
        assert sp.rank == 3
        # canonical phase: first sizable component real positive
        for k in range(sp.eigenvectors.shape[1]):
            col = sp.eigenvectors[:, k]
            pivot = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def _phased_by_columns(v: np.ndarray) -> np.ndarray:
    """The per-column phase loop that ``spectrum`` ran before its vectorized step: the reference."""
    v = np.array(v)
    for k in range(v.shape[1]):
        nz = np.flatnonzero(np.abs(v[:, k]) > 1e-8)
        if nz.size:
            pivot = v[nz[0], k]
            v[:, k] = v[:, k] * (pivot.conjugate() / abs(pivot))
    return v


def test_spectrum_phases_match_the_column_loop():
    # The arithmetic is unchanged, so the vectorized phase step must equal
    # the loop bit for bit: on full-rank, low-rank, degenerate and pure
    # states, whose eigenvectors often lead with entries below 1e-8.
    states = [random_mixed(dims, rank, 700 + i) for i, (dims, rank) in
              enumerate([((2, 2), 4), ((2, 3), 2), ((3, 3), 9), ((2, 2, 2), 3), ((6,), 6)] * 8)]
    states += [werner_qudit(d, x) for d in (2, 3, 6) for x in (-0.5, 0.0, 0.9)]
    states += [haar_random_pure((2, 3), 720 + i).to_density() for i in range(8)]
    states += [QState((2, 2), np.diag([0.5, 0.0, 0.5, 0.0])), example3_state()]
    for state in states:
        w, v = _decomposition(state)
        expected = _phased_by_columns(v[:, np.argsort(-w, kind="stable")])
        assert spectrum(state).eigenvectors.tobytes() == expected.tobytes()


def test_a_state_keeps_one_read_only_decomposition(monkeypatch):
    # A validated state keeps validation's pair; a derived state computes
    # the same eigh on its first spectral read.  Every later read, by
    # entropy, spectrum, purification or the factor of subsystem 0, takes
    # the kept pair, and neither array can be written.
    state = random_mixed((2, 3), 4, 1)
    derived = partial_trace(haar_random_pure((2, 2, 2), 3).to_density(), (0, 2))
    diag = validate(state.matrix, state.dims)
    assert "decomposition" not in repr(diag) and diag == validate(state.matrix, state.dims)
    for kept, fresh in zip(_decomposition(state), diag.decomposition):
        assert kept.tobytes() == fresh.tobytes() and not kept.flags.writeable
    solved = record_eigensolves(monkeypatch)
    for _ in range(2):
        for rho in (state, derived):
            von_neumann_entropy(rho), spectrum(rho), purify(rho), _measurement_factor(rho, 0)
    assert len(solved) == 1 and calls_on(solved, derived.matrix) == 1
    assert all(not a.flags.writeable for a in _decomposition(derived))
    with pytest.raises(ValueError):
        _decomposition(derived)[1][0, 0] = 0.0


def test_a_state_keeps_its_reductions_and_their_entropies(monkeypatch):
    # partial_trace keeps each reduction on its source under the sorted kept
    # indices, however they are spelled, and von_neumann_entropy keeps its
    # value: two entropy reads of one reduction make one eigensolve.
    state = random_mixed((2, 2, 3), 5, 1)
    reduced = partial_trace(state, 0)
    assert partial_trace(state, (0,)) is reduced and partial_trace(state, [0]) is reduced
    assert partial_trace(state, (2, 0)) is partial_trace(state, [0, 2]) is not partial_trace(state, (0, 1))
    solved = record_eigensolves(monkeypatch)
    first, second = von_neumann_entropy(partial_trace(state, [0])), von_neumann_entropy(reduced)
    assert first == second and len(solved) == 1 and calls_on(solved, reduced.matrix) == 1
    for _ in range(2):
        conditional_entropy(state, 1, 0)
    assert len(solved) == 2 and calls_on(solved, partial_trace(state, (0, 1)).matrix) == 1


def test_a_kept_reduction_answers_only_its_own_key():
    # A kept key answers before parsing, but (True,), (1.0,) and
    # (np.bool_(True),) equal and hash as the kept (1,): each must still be
    # read in full and refused, as must an index out of range.
    state = random_mixed((2, 2), 3, 1)
    kept = partial_trace(state, (1,))
    for keep in ((True,), (1.0,), (np.bool_(True),), (5,)):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(state, keep)
    for keep in (1, [1], (1,), (np.int64(1),), (1, 1)):
        assert partial_trace(state, keep) is kept


def test_purify_pure_state_has_trivial_environment():
    pure = bell_state()
    vec = purify(pure)
    assert vec.dims == (2, 2, 1)
    np.testing.assert_allclose(
        partial_trace(vec.to_density(), (0, 1)).matrix, pure.matrix, atol=1e-9
    )


def test_purify_maximally_mixed_qubit_is_maximally_entangled():
    vec = purify(QState((2,), np.eye(2) / 2.0))
    assert vec.dims == (2, 2)
    rho = vec.to_density()
    np.testing.assert_allclose(partial_trace(rho, (0,)).matrix, np.eye(2) / 2.0, atol=1e-12)
    assert von_neumann_entropy(partial_trace(rho, (1,))) == pytest.approx(1.0, abs=1e-9)


def test_purify_example3_matches_reference_up_to_environment_unitary():
    # reference purification (psi_0 |0> + psi_1 |1>)/sqrt(2), environment last
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = psi0[5] = 1.0 / np.sqrt(2.0)
    psi1 = np.zeros(8, dtype=complex)
    psi1[2] = psi1[7] = 1.0 / np.sqrt(2.0)
    ref = np.zeros(16, dtype=complex)
    ref[0::2] = psi0 / np.sqrt(2.0)
    ref[1::2] = psi1 / np.sqrt(2.0)
    ref_vec = PureStateVector((4, 2, 2), ref)

    mine = purify(example3_state())
    assert mine.dims == (4, 2, 2)
    m1 = mine.amplitudes.reshape(8, 2)
    m2 = ref_vec.amplitudes.reshape(8, 2)
    u = np.linalg.pinv(m2) @ m1
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(m2 @ u, m1, atol=1e-9)
    for keep in [(0, 1), (0,), (1,), (2,)]:
        np.testing.assert_allclose(
            partial_trace(mine.to_density(), keep).matrix,
            partial_trace(ref_vec.to_density(), keep).matrix,
            atol=1e-9,
        )


def test_purify_roundtrip_on_random_states():
    for i in range(200):
        dims = ((2, 2), (2, 3))[i % 2]
        rank = 1 + i % 4
        state = random_mixed(dims, rank, 700 + i)
        vec = purify(state)
        assert vec.dims == dims + (rank,)
        back = partial_trace(vec.to_density(), tuple(range(len(dims))))
        assert np.max(np.abs(back.matrix - state.matrix)) <= 1e-9


def test_permute_subsystems():
    state = random_mixed((2, 3, 2), 6, 17)
    phi = permute_subsystems(state, (2, 0, 1))
    assert phi.dims == (2, 2, 3)
    assert von_neumann_entropy(phi) == pytest.approx(von_neumann_entropy(state), abs=1e-12)
    back = permute_subsystems(phi, (1, 2, 0))
    np.testing.assert_allclose(back.matrix, state.matrix, atol=1e-14)
    np.testing.assert_allclose(
        partial_trace(phi, (0,)).matrix, partial_trace(state, (2,)).matrix, atol=1e-12
    )
    with pytest.raises(ValueError):
        permute_subsystems(state, (0, 0, 1))


def test_entropy_unitary_invariance(rng):
    for i in range(20):
        state = random_mixed((2, 2), 4, 900 + i)
        u = haar_unitary(rng, 4)
        rotated = QState((2, 2), u @ state.matrix @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(state), abs=1e-9
        )


def test_araki_lieb_and_subadditivity():
    for i in range(50):
        state = random_mixed((2, 2), 1 + i % 4, 1000 + i)
        s_a = von_neumann_entropy(partial_trace(state, (0,)))
        s_b = von_neumann_entropy(partial_trace(state, (1,)))
        s_ab = von_neumann_entropy(state)
        assert s_ab <= s_a + s_b + 1e-9
        assert abs(s_a - s_b) <= s_ab + 1e-9


def test_pure_state_complementarity_and_conditional_identity():
    for i in range(30):
        base = random_mixed((2, 2), 2, 1100 + i)
        abc = purify(base).to_density()
        s = {
            key: von_neumann_entropy(partial_trace(abc, keep))
            for key, keep in {
                "a": (0,), "b": (1,), "c": (2,),
                "ab": (0, 1), "ac": (0, 2), "bc": (1, 2),
            }.items()
        }
        assert s["ab"] == pytest.approx(s["c"], abs=1e-9)
        assert s["ac"] == pytest.approx(s["b"], abs=1e-9)
        assert s["bc"] == pytest.approx(s["a"], abs=1e-9)
        # strong-subadditivity saturation on pure states
        lhs = conditional_entropy(abc, 1, 0) + conditional_entropy(abc, 1, 2)
        assert abs(lhs) <= 1e-9


def test_state_json_roundtrip():
    state = random_mixed((2, 2), 3, 77)
    again = state_from_json(state_to_json(state))
    assert again.dims == state.dims
    np.testing.assert_allclose(again.matrix, state.matrix, atol=0)


def test_state_json_errors():
    with pytest.raises(InvalidStateError, match="dims"):
        state_from_json({"matrix": []})
    with pytest.raises(InvalidStateError, match="matrix"):
        state_from_json({"dims": [2]})
    with pytest.raises(InvalidStateError):
        state_from_json({"dims": [2], "matrix": [[1.0, 0.0], [0.0, 0.0]]})


def test_normalize_partition():
    assert normalize_partition(3, None) == ((0,), (1, 2))
    assert normalize_partition(3, ([2], [0, 1])) == ((2,), (0, 1))
    for bad in (((0,), (0, 1)), ((0,), (1,)), ((), (0, 1, 2)), ((0, 1, 2), ())):
        with pytest.raises(ValueError, match="nonempty groups"):
            normalize_partition(3, bad)
    with pytest.raises(ValueError, match="at least two subsystems"):
        normalize_partition(1, None)


_RHO = random_mixed((2, 2), 3, 1)
_PURE = haar_random_pure((2, 2), 3).to_density()  # both sides certified: no search runs
_CFG = OptimizerConfig(restarts=2)

# Every entry point that reads an integer or subsystem-index argument: a call
# with the value v, the name its error must carry, a valid value, and one out
# of its range (None where every integer is valid).
_INTEGER_ARGUMENTS = {
    "QState-dims": (lambda v: QState((v, 2), np.eye(4) / 4.0), "dims", 2, 0),
    "partial_trace-keep": (lambda v: partial_trace(_RHO, (v,)), "keep", 1, 2),
    "permute_subsystems-order": (lambda v: permute_subsystems(_RHO, (v, 0)), "order", 1, 2),
    "normalize_partition": (lambda v: normalize_partition(2, ((v,), (0,))), "partition", 1, 2),
    "conditional_entropy-target": (lambda v: conditional_entropy(_RHO, v, 0), "target", 1, 2),
    "conditional_entropy-condition": (lambda v: conditional_entropy(_RHO, 0, v), "condition", 1, 2),
    "ProjectiveMeasurement-subsystem": (lambda v: ProjectiveMeasurement(v, np.eye(2)), "subsystem", 1, -1),
    "POVM-subsystem": (lambda v: POVM(v, (np.eye(2) / 2.0, np.eye(2) / 2.0)), "subsystem", 1, -1),
    "dephase-subsystem": (lambda v: dephase(_RHO, ProjectiveMeasurement(v, np.eye(2))), "subsystem", 1, 2),
    "discord-measured": (lambda v: discord(_PURE, v, _CFG), "measured", 1, 2),
    "unitary_from_params-d": (lambda v: unitary_from_params(v, np.full(2, 0.3)), "d", 2, 0),
    "re_discord-measured": (lambda v: re_discord(_PURE, v, _CFG), "measured", 1, 2),
    "re_discord-measured-set": (lambda v: re_discord(_PURE, [v, 0], _CFG), "measured", 1, 2),
    "stream-seed": (lambda v: stream(v).random(3), "seed", 5, None),
    "stream-index": (lambda v: stream(5, v).random(3), "index", 1, None),
    "werner_qudit-d": (lambda v: werner_qudit(v, 0.3), "d", 3, 1),
    "haar_random_pure-dims": (lambda v: haar_random_pure((v, 2), 1), "dims", 2, 0),
    "haar_random_pure-seed": (lambda v: haar_random_pure((2, 2), v), "seed", 1, None),
    "haar_random_pure-index": (lambda v: haar_random_pure((2, 2), 1, v), "index", 1, None),
    "random_mixed-dims": (lambda v: random_mixed((v, 2), 2, 1), "dims", 2, 0),
    "random_mixed-rank": (lambda v: random_mixed((2, 2), v, 1), "rank", 3, 5),
    "random_mixed-seed": (lambda v: random_mixed((2, 2), 3, v), "seed", 1, None),
    "random_mixed-index": (lambda v: random_mixed((2, 2), 3, 1, v), "index", 1, None),
    "StateFamilySpec-d": (lambda v: StateFamilySpec("werner_qudit", {"d": v, "x": 0.3}), "d", 3, 1),
    "StateFamilySpec-k": (lambda v: StateFamilySpec("classical_quantum", {"k": v, "dims": (2,)}), "k", 2, 0),
    "StateFamilySpec-rank": (lambda v: StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": v}), "rank", 3, 5),
    "StateFamilySpec-dims": (lambda v: StateFamilySpec("haar_pure", {"dims": (v, 2)}), "dims", 2, 0),
    "StateFamilySpec-seed": (lambda v: StateFamilySpec("haar_pure", {"dims": (2, 2)}, v), "seed", 3, None),
    "OptimizerConfig-restarts": (lambda v: OptimizerConfig(restarts=v), "restarts", 2, 0),
}


def _fingerprint(result):
    """The bytes and reprs of a result, so that two results must agree bit for bit and in their int types."""
    if isinstance(result, StateFamilySpec):
        result = (result.to_json(), result.sample(0))
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, tuple):
        return tuple(map(_fingerprint, result))
    if hasattr(result, "__dict__"):
        return {key: _fingerprint(value) for key, value in vars(result).items()}
    return repr(result)


@pytest.mark.parametrize("call, name, good, out_of_range", _INTEGER_ARGUMENTS.values(), ids=_INTEGER_ARGUMENTS)
def test_integer_arguments_are_read_by_one_reader(call, name, good, out_of_range):
    # No float is rounded to an index and no bool counts as one; each bad
    # value is a ValueError naming the argument, and a numpy integer reads
    # as the int it holds.
    for bad in (2.5, 1.7, True) + (() if out_of_range is None else (out_of_range,)):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(bad)
    assert _fingerprint(call(np.int64(good))) == _fingerprint(call(good))


def _gram_cases(side: int, g: np.random.Generator) -> np.ndarray:
    """Hermitian PSD blocks: random, rank 1, zero, a multiple of I, a gap of
    1e-9, diagonal and real (for side 1 these collapse to a few scalars)."""
    if side == 1:
        return np.array([[[0.37]], [[0.0]], [[2.5]], [[1e-12]]], dtype=complex)
    z = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
    z /= np.linalg.norm(z)
    u = haar_unitary(g, 2)
    near = u @ np.diag([0.3, 0.3 + 1e-9]) @ u.conj().T
    real = g.normal(size=(2, 2)) / 2.0
    cases = [
        z @ z.conj().T,
        np.outer(z[0], z[0].conj()),
        np.zeros((2, 2)),
        0.4 * np.eye(2),
        (near + near.conj().T) / 2.0,
        np.diag([0.7, 0.2]),
        real @ real.T,
    ]
    return np.array(cases, dtype=complex)


@pytest.mark.parametrize("side", [1, 2, 3])
def test_gram_spectrum_matches_lapack_eigh(side):
    # Sides 1 and 2 take the closed form, side 3 LAPACK; all must give
    # eigh's ascending eigenvalues and its sum_j h(lambda_j) P_j.
    g = np.random.default_rng(40 + side)
    if side == 3:
        z = g.normal(size=(5, 3, 3)) + 1j * g.normal(size=(5, 3, 3))
        blocks = z @ np.swapaxes(z.conj(), -1, -2) / 9.0
    else:
        blocks = _gram_cases(side, g)
    blocks = np.stack([blocks, 2.0 * blocks])  # a leading stack axis
    w, apply = _gram_spectrum(blocks)
    w_ref, v_ref = np.linalg.eigh(blocks)
    scale = np.linalg.norm(blocks, ord=2, axis=(-2, -1))[..., None]
    assert np.all(np.abs(w - w_ref) <= 1e-14 * scale)
    for h in (np.exp, np.sin, np.square, lambda t: np.cos(3.0 * t)):
        reference = (v_ref * h(w_ref)[..., None, :]) @ np.swapaxes(v_ref.conj(), -1, -2)
        np.testing.assert_allclose(apply(h(w)), reference, rtol=0, atol=1e-12)


def _member_block_objective(rows, da, db, dephasing, v):
    # The explicit formula the Gram kernel replaces: cut each member row of
    # V rows into its da x db block M_i, take the smaller Gram side, and
    # carry the gradient back through the blocks and rows^H.
    left = da <= db
    blocks = (v @ rows).reshape(v.shape[:-1] + (da, db))
    blocks_h = np.swapaxes(blocks.conj(), -1, -2)
    w, vec = np.linalg.eigh(blocks @ blocks_h if left else blocks_h @ blocks)
    w = np.maximum(w, 0.0)
    axes = (-2, -1) if dephasing else -1
    p = w.sum(axis=axes, keepdims=True)
    mu = w / np.where(p > 0.0, p, 1.0)
    logs = np.log2(np.maximum(mu, 1e-10))
    values = -((mu if dephasing else w) * logs).sum(axis=(-2, -1))
    if dephasing:
        logs = (logs + values[..., None, None]) / p
    log_ratio = (vec * logs[..., None, :]) @ np.swapaxes(vec.conj(), -1, -2)
    grad = -2.0 * (log_ratio @ blocks if left else blocks @ log_ratio)
    return values, grad.reshape(v.shape[:-1] + (-1,)) @ rows.conj().T


@pytest.mark.parametrize("dephasing", [False, True], ids=["entropy", "dephasing"])
@pytest.mark.parametrize(
    "da, db, n, m",
    [(1, 3, 3, 3), (3, 1, 2, 2), (2, 2, 4, 16), (2, 3, 3, 9), (3, 2, 3, 9), (3, 4, 2, 4), (4, 3, 3, 3)],
)
def test_ensemble_objective_matches_member_blocks(da, db, n, m, dephasing):
    # Gram sides 1, 2 and 3 in both orientations, on R = 16 stacks of
    # isometries, some with zero members, and of arbitrary matrices.
    g = np.random.default_rng(100 * da + 10 * db + n)
    rows = g.normal(size=(n, da * db)) + 1j * g.normal(size=(n, da * db))
    rows /= np.linalg.norm(rows)
    z = g.normal(size=(16, m, n)) + 1j * g.normal(size=(16, m, n))
    isometries = np.linalg.qr(z)[0]
    isometries[:4] = np.eye(m, n)
    objective = _ensemble_objective(rows[None], da, db, dephasing)
    for v in (isometries, z / np.sqrt(m * n)):
        values, grads = objective(v, (len(v),))
        ref_values, ref_grads = _member_block_objective(rows, da, db, dephasing, v)
        np.testing.assert_allclose(values, ref_values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads, ref_grads, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dephasing", [False, True], ids=["entropy", "dephasing"])
def test_ensemble_objective_scores_a_rank_one_factor_as_positive_zero(dephasing):
    # Every member of a pure product state's factor is pure, so each term of
    # the value is 0 * log 1 = 0; their negated sum must be +0.0, not -0.0,
    # which a report would print as "-0".
    product = tensor(QState((2,), np.diag([1.0, 0.0]).astype(complex)), QState((3,), np.full((3, 3), 1.0 / 3.0)))
    factor, r = _measurement_factor(product, 0)
    objective = _ensemble_objective(factor[None], r, factor.shape[1] // r, dephasing)
    values, _grad = objective(np.eye(2, dtype=complex)[None], (1,))
    assert values.tolist() == [0.0] and math.copysign(1.0, values[0]) == 1.0
