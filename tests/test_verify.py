"""Named relation checks and suite aggregation."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from discordkit import (
    OptimizerConfig,
    POVM,
    ProjectiveMeasurement,
    QState,
    apply_measurement,
    eof_upper,
    partial_trace,
    projective_from_params,
    purify,
    tensor,
    von_neumann_entropy,
)
from discordkit import cli
from discordkit._descent import random_isometries
from discordkit.measurement import OUTCOME_FLOOR
from discordkit.states import (
    StateFamilySpec,
    classical_quantum,
    example3_state,
    haar_random_pure,
    random_mixed,
    stream,
    werner_2qubit_example4,
)
from discordkit.verify import (
    _MEASUREMENT_SALT,
    EF_ZERO_TOL,
    RELATIONS,
    _StateAnalysis,
    check_cor1,
    check_cor2,
    check_eq5,
    check_eq8,
    check_eq12,
    check_koashi_winter,
    check_kw_pointwise,
    check_lindblad_lemma3,
    check_monogamy,
    check_thm1,
    check_thm2,
    check_thm3,
    run_suite,
)

from conftest import bell_state, ghz_vector, record_descends

CFG = OptimizerConfig(restarts=6, seed=2)
FAST = OptimizerConfig(restarts=2, max_iter=400, seed=2)
# The descends of one search that holds the D_A problem and the roof of BC.
PAIRED = [(FAST.restarts, FAST.restarts)]


def test_eq5_saturation_and_product_slack():
    bell = check_eq5(bell_state())
    assert bell.holds and abs(bell.slack) <= 1e-12

    prod = tensor(random_mixed((2,), 2, 1), random_mixed((2,), 2, 2))
    row = check_eq5(prod)
    s_min = min(
        von_neumann_entropy(partial_trace(prod, (0,))),
        von_neumann_entropy(partial_trace(prod, (1,))),
    )
    assert row.holds
    assert row.slack == pytest.approx(2 * s_min, abs=1e-9)

    rand = check_eq5(random_mixed((2, 2), 2, 3))
    assert rand.holds


@pytest.mark.parametrize(
    "spec",
    [StateFamilySpec("haar_pure", {"dims": (2,)}, 1), StateFamilySpec("random_mixed", {"dims": (3,), "rank": 2}, 1)],
    ids=["pure", "mixed"],
)
def test_a_one_subsystem_input_skips_every_relation(spec):
    # eq5 splits off the first subsystem from the rest, so it needs two;
    # every other row has a stronger hypothesis, and the suite completes.
    row = check_eq5(spec.sample(0))
    assert row.skipped == "needs at least two subsystems" and row.holds is None
    report = run_suite(spec, tuple(RELATIONS), 2, FAST)
    assert report.n_skip == len(report.rows) == 2 * len(RELATIONS) and report.all_pass


def test_koashi_winter_on_example3_and_random_states():
    row = check_koashi_winter(example3_state(), CFG)
    assert row.holds and row.slack <= 1e-3
    assert row.lhs == pytest.approx(1.0, abs=1e-3)  # E_F(BC) + J_A = 0 + 1
    for i in range(10):
        row = check_koashi_winter(random_mixed((2, 2), 2, 7000 + i), CFG)
        assert row.skipped is None and row.holds


def test_koashi_winter_skips_when_inapplicable():
    row = check_koashi_winter(random_mixed((2, 3), 2, 1), CFG)
    assert row.skipped is not None and "qubit" in row.skipped
    row = check_koashi_winter(random_mixed((2, 2), 4, 1), CFG)
    assert row.skipped is not None and "rank" in row.skipped


@pytest.mark.parametrize(
    "check", [check_koashi_winter, check_eq8, check_thm1, check_cor1, check_lindblad_lemma3, check_thm2, check_cor2]
)
def test_bipartite_relations_skip_a_tripartite_input(check):
    # The first link of the chained hypothesis; the survey row is not
    # evaluated on a failed structural hypothesis either.
    row = check(haar_random_pure((2, 2, 2), 5), FAST)
    kind = "identity" if check in (check_koashi_winter, check_eq8) else "inequality"
    assert row.kind == kind and row.skipped == "needs a bipartite state" and row.holds is None
    assert all(math.isnan(v) for v in (row.lhs, row.rhs, row.slack))


@pytest.mark.parametrize("check", [check_monogamy, check_eq12, check_kw_pointwise])
@pytest.mark.parametrize(
    "state",
    [random_mixed((2, 2, 2), 8, 3), haar_random_pure((2, 2, 2, 2), 4).to_density(), random_mixed((2, 2, 2, 2), 2, 4)],
    ids=["mixed-abc", "pure-abcd", "mixed-abcd"],
)
def test_pure_abc_relations_skip_an_input_without_one(check, state):
    # These rows read the pure tripartite form ABC, which only a bipartite or
    # a pure tripartite input has; any other input skips, and none is read.
    a = _StateAnalysis(state, FAST)
    row = check(a, FAST)
    assert row.kind == "identity" and row.skipped == "needs a bipartite or a pure tripartite state"
    assert row.holds is None and all(math.isnan(v) for v in (row.lhs, row.rhs, row.slack))
    assert list(a._memo) == ["state"]


def test_eq8_pure_and_random():
    rho = haar_random_pure((2, 2), 4).to_density()
    row = check_eq8(rho, CFG)
    assert row.holds
    for i in range(10):
        assert check_eq8(random_mixed((2, 2), 2, 7100 + i), CFG).holds


def test_eq8_rhs_is_positive_zero_when_s_ab_equals_s_a():
    # A classical-quantum state with pure conditional states has S(AB) =
    # S(A) = H(p), so the right side -S(B|A) must be +0.0, printed "0", not
    # "-0".  D_A and E_F(BC) both vanish, so the left side is +0.0 too.
    zero = QState((2,), np.diag([1.0, 0.0]).astype(complex))
    plus = QState((2,), np.full((2, 2), 0.5, dtype=complex))
    cq = classical_quantum([0.3, 0.7], [zero, plus])
    assert von_neumann_entropy(cq) == von_neumann_entropy(partial_trace(cq, (0,)))
    row = check_eq8(cq, CFG)
    assert row.holds and (row.lhs, row.rhs) == (0.0, 0.0)
    assert math.copysign(1.0, row.lhs) == math.copysign(1.0, row.rhs) == 1.0


def test_monogamy():
    # product |psi>_A (x) |phi>_BC: both terms vanish together with S(A)
    a = haar_random_pure((2,), 1)
    bc = haar_random_pure((2, 2), 2)
    amps = np.kron(a.amplitudes, bc.amplitudes)
    from discordkit import PureStateVector

    prod = PureStateVector((2, 2, 2), amps).to_density()
    row = check_monogamy(prod, CFG)
    assert row.holds and row.slack <= 2e-3

    assert check_monogamy(ghz_vector().to_density(), CFG).holds
    assert check_monogamy(werner_2qubit_example4(), CFG).holds  # purified internally

    # A mixed tripartite input has no pure ABC form: the row is skipped.
    row = check_monogamy(random_mixed((2, 2, 2), 2, 3), CFG)
    assert row.kind == "identity" and row.skipped == "needs a bipartite or a pure tripartite state"
    assert row.holds is None and all(math.isnan(v) for v in (row.lhs, row.rhs, row.slack))


def test_thm1_example3_equality_and_random_inequality():
    row = check_thm1(example3_state(), CFG)
    assert row.holds and row.equality is True
    assert row.lhs == pytest.approx(1.0, abs=1e-3)
    assert row.rhs == pytest.approx(1.0, abs=1e-9)

    pure = check_thm1(haar_random_pure((2, 2), 9).to_density(), CFG)
    assert pure.holds and pure.equality is True

    for i in range(5):
        assert check_thm1(random_mixed((2, 2), 2, 7200 + i), CFG).holds


def test_cor1_example3_and_hypothesis_skip():
    row = check_cor1(example3_state(), CFG)
    assert row.holds and row.equality is True and row.slack <= 1e-3

    # entangled environment: hypothesis fails
    row = check_cor1(werner_2qubit_example4(), CFG)
    assert row.skipped is not None and "hypothesis" in row.skipped


def test_lindblad_survey_records_example4_violation():
    row = check_lindblad_lemma3(werner_2qubit_example4(), CFG)
    assert row.skipped is not None and row.skipped.startswith("survey")
    assert row.holds is False  # the recorded violation
    assert row.lhs == pytest.approx(0.1258, abs=5e-3)
    assert row.rhs == pytest.approx(0.0817, abs=5e-3)


def test_lindblad_holds_under_hypothesis():
    spec = StateFamilySpec("classical_quantum", {"k": 2, "dims": (2,), "rank": 1}, 5)
    for i in range(5):
        row = check_lindblad_lemma3(spec.sample(i), CFG)
        assert row.skipped is None and row.holds

    pure = check_lindblad_lemma3(haar_random_pure((2, 2), 3).to_density(), CFG)
    assert pure.skipped is None and pure.holds
    assert abs(pure.rhs - pure.lhs) <= 2e-3  # D = J = S(B) on pure states


def test_eq12():
    assert check_eq12(ghz_vector().to_density()).holds
    assert check_eq12(example3_state()).holds
    for i in range(10):
        assert check_eq12(random_mixed((2, 2), 3, 7300 + i)).holds


def test_thm2_and_cor2():
    pure = haar_random_pure((2, 2), 12).to_density()
    row = check_thm2(pure, CFG)
    assert row.skipped is None and row.holds
    assert row.provenance["identity_residual"] <= 2e-3

    cc_spec = StateFamilySpec(
        "classical_quantum", {"k": 2, "dims": (2,), "orthogonal": True}, 6
    )
    for i in range(3):
        state = cc_spec.sample(i)
        t2 = check_thm2(state, CFG)
        assert t2.skipped is None and t2.holds
        c2 = check_cor2(state, CFG)
        assert c2.skipped is None and c2.holds

    # non-orthogonal components entangle A with the environment: skip
    cq_spec = StateFamilySpec("classical_quantum", {"k": 2, "dims": (2,), "rank": 1}, 7)
    row = check_thm2(cq_spec.sample(0), CFG)
    assert row.skipped is not None and "hypothesis" in row.skipped

    c2_pure = check_cor2(pure, CFG)
    assert c2_pure.holds and c2_pure.equality is True


def test_thm2_fails_when_its_identity_residual_exceeds_the_tolerance():
    # Shift D_B by 1e-2, through its conditional-entropy minimum: the bound
    # |D_A - D_B| <= S(AB) still holds, but the identity D_A - D_B = S(A) -
    # S(B) no longer does, so the row must fail.
    spec = StateFamilySpec("classical_quantum", {"k": 2, "dims": (2,), "orthogonal": True}, 6)
    analysis = _StateAnalysis(spec.sample(0), FAST)
    opt_b = analysis.minimum("state", 1)
    analysis._memo[("minimum", analysis.state, 1)] = replace(opt_b, value=opt_b.value + 1e-2)
    row = check_thm2(analysis, FAST)
    assert row.skipped is None and row.slack >= -row.tolerance
    assert row.provenance["identity_residual"] > row.tolerance and row.holds is False


def _record_eof_pairs(monkeypatch, analysis):
    """Patch ``_certified_eof`` and ``eof_upper`` to log the pair of ``analysis`` each call is for."""
    import discordkit.verify as verify

    pairs, roofs = [], []
    certified_eof, eof_upper = verify._certified_eof, verify.eof_upper

    def pair_of(state):
        return next(p for p in ("ac", "bc") if analysis.source(p) is state)

    def recording_certified_eof(state, cfg):
        pairs.append(pair_of(state))
        return certified_eof(state, cfg)

    def recording_eof_upper(state, *args, **kwargs):
        roofs.append(pair_of(state))
        return eof_upper(state, *args, **kwargs)

    monkeypatch.setattr(verify, "_certified_eof", recording_certified_eof)
    monkeypatch.setattr(verify, "eof_upper", recording_eof_upper)
    return pairs, roofs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_thm2_hypothesis_stops_at_a_nonvanishing_ef_bc(monkeypatch, seed):
    # the 2x2x3 purification's BC and AC reductions both need the convex
    # roof; E_F(BC) does not vanish, so E_F(AC) is never computed
    analysis = _StateAnalysis(random_mixed((2, 2), 3, seed), FAST)
    pairs, roofs = _record_eof_pairs(monkeypatch, analysis)
    rows = [check_thm2(analysis, FAST), check_cor2(analysis, FAST)]
    assert pairs == roofs == ["bc"]
    ef_bc = analysis.eof("bc")[0]
    assert ef_bc > EF_ZERO_TOL
    for row in rows:
        assert row.skipped == f"hypothesis not met: E_F(BC) = {ef_bc:.3g}"
        assert "E_F(AC)" not in row.skipped


def _record_minimum_with_roof(monkeypatch):
    """Patch ``verify._minimum_with_roof`` to log, per call, the block sizes of the descends it ran.

    ``PAIRED`` when the D_A problem and the roof ran as one search.
    """
    import discordkit.verify as verify

    calls, minimum_with_roof = [], verify._minimum_with_roof
    descends = record_descends(monkeypatch)

    def recording(ab, bc, cfg):
        descends.clear()
        out = minimum_with_roof(ab, bc, cfg)
        calls.append(list(descends))
        return out

    monkeypatch.setattr(verify, "_minimum_with_roof", recording)
    return calls


@pytest.mark.parametrize(
    "relations, paired",
    [(("thm1",), True), (("lindblad",), True), (("monogamy", "thm2"), True), (("monogamy", "cor1"), True),
     (("eq8", "thm2", "cor2"), False), (("cor1",), False), (("thm2",), False), (("monogamy",), False)],
)
def test_suite_pairs_d_a_with_the_roof_only_when_it_reads_both(monkeypatch, relations, paired):
    # D_A and E_F(BC) share one search only when the suite's relations read
    # both on every bipartite input; the roof is then never run alone, and
    # a suite that reads only one of them never runs the other.
    state = StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": 3}, 11).sample(0)
    unpaired = _StateAnalysis(state, FAST)
    refs = [RELATIONS[name](unpaired, FAST) for name in relations]
    calls = _record_minimum_with_roof(monkeypatch)
    analysis = _StateAnalysis(state, FAST, relations)
    pairs, roofs = _record_eof_pairs(monkeypatch, analysis)
    rows = [RELATIONS[name](analysis, FAST) for name in relations]
    assert calls == ([PAIRED] if paired else [])
    assert roofs == ([] if paired or not {"thm1", "cor1", "lindblad", "thm2", "cor2"} & set(relations) else ["bc"])
    if relations == ("monogamy",):
        assert pairs == [] and ("eof", "bc") not in analysis._memo
    for row, ref in zip(rows, refs):
        assert (row.skipped, row.holds, row.provenance) == (ref.skipped, ref.holds, ref.provenance)
        for got, want in ((row.lhs, ref.lhs), (row.rhs, ref.rhs)):
            assert got == pytest.approx(want, abs=1e-12, nan_ok=True)


def test_lone_check_pairs_as_its_own_suite(monkeypatch):
    # A lone check_* call is a suite of its own relation: thm1 reads both
    # quantities and pairs, thm2 reads E_F(BC) alone and does not.
    state = random_mixed((2, 2), 3, 11)
    calls = _record_minimum_with_roof(monkeypatch)
    row = check_thm1(state, FAST)
    assert calls == [PAIRED] and row.skipped is None and row.holds
    assert check_thm2(state, FAST).skipped.startswith("hypothesis not met: E_F(BC)")
    assert calls == [PAIRED]


def test_monogamy_only_suite_runs_no_roof(monkeypatch):
    import discordkit.verify as verify

    roofs = []
    monkeypatch.setattr(verify, "eof_upper", lambda *a, **k: roofs.append(a) or pytest.fail("a roof ran"))
    calls = _record_minimum_with_roof(monkeypatch)
    report = run_suite(StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": 3}, 11), ("monogamy",), 3, FAST)
    assert report.all_pass and roofs == [] and calls == []


def test_thm2_hypothesis_computes_ef_ac_when_ef_bc_vanishes(monkeypatch):
    # non-orthogonal rank-1 components: B is unentangled with the
    # environment (Wootters E_F(BC) = 0), but A is entangled with it
    spec = StateFamilySpec("classical_quantum", {"k": 2, "dims": (2,), "rank": 1}, 7)
    analysis = _StateAnalysis(spec.sample(0), FAST)
    pairs, roofs = _record_eof_pairs(monkeypatch, analysis)
    rows = [check_thm2(analysis, FAST), check_cor2(analysis, FAST)]
    assert pairs == ["bc", "ac"] and roofs == []
    (ef_bc, _, route_bc), (ef_ac, _, route_ac) = analysis.eof("bc"), analysis.eof("ac")
    assert route_bc == route_ac == "wootters"
    assert ef_bc <= EF_ZERO_TOL and ef_ac == pytest.approx(0.237, abs=1e-3)
    for row in rows:
        assert row.skipped == f"hypothesis not met: E_F(AC) = {ef_ac:.3g}, E_F(BC) = {ef_bc:.3g}"


@pytest.mark.parametrize("index", [0, 1, 2])
def test_thm2_hypothesis_met_records_both_routes(monkeypatch, index):
    spec = StateFamilySpec("classical_quantum", {"k": 2, "dims": (2,), "orthogonal": True}, 6)
    analysis = _StateAnalysis(spec.sample(index), FAST)
    pairs, roofs = _record_eof_pairs(monkeypatch, analysis)
    for row in (check_thm2(analysis, FAST), check_cor2(analysis, FAST)):
        assert row.skipped is None and row.holds
        assert row.provenance["route_ac"] == row.provenance["route_bc"] == "wootters"
        # a rank-2 two-qubit input: D_A and D_B are both certified
        assert row.provenance["measurement_route"] == "certified"
    assert pairs == ["bc", "ac"] and roofs == []


@pytest.mark.parametrize(
    "spec, marked",
    [
        (StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": 2}, 3),
         {"koashi_winter", "eq8", "thm1", "lindblad", "monogamy"}),
        (StateFamilySpec("haar_pure", {"dims": (2, 2, 2)}, 3), {"monogamy"}),
        (StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": 3}, 3), set()),
        (StateFamilySpec("random_mixed", {"dims": (2, 3), "rank": 2}, 3), set()),
    ],
    ids=["2x2r2", "pure_2x2x2", "2x2r3", "2x3r2"],
)
def test_rows_reading_a_certified_minimum_record_the_route(spec, marked):
    # cor1, thm2 and cor2 skip these samples (E_F(BC) > 0), and the other
    # rows read no conditional-entropy minimum
    report = run_suite(spec, tuple(RELATIONS), 2, FAST)
    for row in report.rows:
        if row.name in marked:
            assert row.provenance["measurement_route"] == "certified"
        else:
            assert "measurement_route" not in row.provenance


def test_werner_rows_read_a_certified_d_a_and_a_lone_roof():
    # A two-qubit Werner input certifies D_A by symmetry, so the rows that
    # read it say so, and the roof of BC, left without a search to share,
    # is eof_upper's alone.
    spec = StateFamilySpec("werner_2qubit", {}, 1)
    report = run_suite(spec, tuple(RELATIONS), 1, FAST)
    marked = {row.name for row in report.rows if row.provenance.get("measurement_route") == "certified"}
    assert marked == {"monogamy", "thm1", "lindblad"}
    state = spec.sample(0)
    roof = eof_upper(partial_trace(purify(state).to_density(), (1, 2)), cfg=FAST).value
    [lindblad] = [row for row in report.rows if row.name == "lindblad"]
    assert lindblad.provenance["ef_bc"] == roof
    analysis = _StateAnalysis(state, FAST, tuple(RELATIONS))
    assert analysis.eof("bc") == (roof, False, "upper")
    assert analysis.minimum("state", 0).stop_reasons == ("certified",)


def test_pure_rows_read_a_certified_d_a():
    # D_A of a pure input is certified, so every row that reads it says so
    # (thm2 and cor2 read D_B too, also certified), and the roof of BC,
    # left without a search to share, is eof_upper's alone.
    spec = StateFamilySpec("haar_pure", {"dims": (2, 2)}, 3)
    marked = {"koashi_winter", "monogamy", "eq8", "thm1", "cor1", "lindblad", "thm2", "cor2"}
    report = run_suite(spec, tuple(RELATIONS), 2, FAST)
    for row in report.rows:
        assert (row.provenance.get("measurement_route") == "certified") == (row.name in marked), row.name
    for i in range(2):
        analysis = _StateAnalysis(spec.sample(i), FAST, tuple(RELATIONS))
        assert analysis.minimum("state", 0).stop_reasons == ("certified",)
        roof = eof_upper(partial_trace(purify(analysis.state).to_density(), (1, 2)), cfg=FAST).value
        assert analysis.eof("bc")[0] == roof


def test_thm3_random_and_classical():
    for i in range(5):
        row = check_thm3(random_mixed((2, 2, 2), 8, 7400 + i), FAST)
        assert row.holds
        assert row.provenance["chain_residual"] <= 1e-9

    # classical tripartite state: all three dephasing discords vanish
    probs = np.array([0.3, 0.2, 0.4, 0.1])
    m = np.diag(probs)
    cc = QState((2, 2), m)
    trip = tensor(QState((2,), np.diag([0.6, 0.4])), cc)
    row = check_thm3(trip, FAST)
    assert row.holds
    assert abs(row.lhs) <= 1e-6 and abs(row.rhs) <= 1e-6


def test_thm3_requires_tripartite():
    row = check_thm3(random_mixed((2, 2), 2, 1), FAST)
    assert row.skipped is not None


def test_thm3_reads_both_sides_in_one_solve():
    # D_B and D_C come from one solve, which may stack the two searches;
    # each side is its re_discord alone, so the row is the one built from
    # re_discord bit for bit.
    from discordkit.correlations import _measured_minima, re_discord, re_discord_detailed

    def bits(opt):
        return opt.value, opt.argbasis.basis.tobytes(), opt.diagnostics()

    cfg = OptimizerConfig(restarts=2, max_iter=400, seed=7)
    for i in range(8):
        state = random_mixed((2, 2, 2), 8, 5000 + i)
        re_b, re_c = re_discord(state, 1, cfg), re_discord(state, 2, cfg)
        pair = _measured_minima(state, (1, 2), cfg, dephasing=True)
        assert [bits(opt) for opt in pair] == [bits(re_b), bits(re_c)]
        detail = re_discord_detailed(state, (1, 2), cfg, first=re_b)
        row = check_thm3(state, cfg)
        assert (row.lhs, row.rhs, row.slack) == (detail.value, re_b.value + re_c.value,
                                                 (re_b.value + re_c.value) - detail.value)
        assert row.provenance == {"chain_value": detail.chain_value, "joint_value": detail.joint_value,
                                  "chain_residual": detail.joint_value - detail.chain_value}
        assert row.holds


def test_thm3_stacks_d_b_and_d_c_in_one_descend(monkeypatch):
    # Both sides read one kept S(rho) as their offset (qstate), so on a
    # (2, 2, 2) input D_B and D_C share a _descent.solve key and run as two
    # blocks of one descend.  When each side read S(rho) from an eigensolve
    # of its own permuted matrix, 22 of these 40 states ran them apart
    # (0, 2, 5, 7, 10, ...).
    import discordkit.verify as verify

    cfg = OptimizerConfig(restarts=2, max_iter=400, seed=7)
    calls, measured_minima = [], verify._measured_minima
    descends = record_descends(monkeypatch)

    def recording(state, measured, c, dephasing):
        descends.clear()
        out = measured_minima(state, measured, c, dephasing)
        calls.append(list(descends))
        return out

    monkeypatch.setattr(verify, "_measured_minima", recording)
    for i in range(40):
        calls.clear()
        row = check_thm3(random_mixed((2, 2, 2), 8, 5000 + i), cfg)
        assert row.skipped is None and calls == [[(cfg.restarts, cfg.restarts)]], i


@pytest.mark.parametrize("excess, holds", [(1e-6, False), (1e-10, True)])
def test_thm3_fails_when_the_joint_value_exceeds_the_chain_value(monkeypatch, excess, holds):
    # Check (a): the joint search over all bases of BC must reach what the
    # chained product basis reaches.  A joint value above the chain value by
    # more than 1e-9 fails the row, though the lower of the two still meets
    # the bound (b).
    import discordkit.verify as verify

    detailed = verify.re_discord_detailed

    def joint_above_chain(*args, **kwargs):
        detail = detailed(*args, **kwargs)
        return replace(detail, value=detail.chain_value, joint_value=detail.chain_value + excess)

    monkeypatch.setattr(verify, "re_discord_detailed", joint_above_chain)
    row = check_thm3(random_mixed((2, 2, 2), 8, 7400), FAST)
    assert row.provenance["chain_residual"] == pytest.approx(excess, rel=1e-3)
    assert row.slack >= -row.tolerance and row.holds is holds


def test_thm3_certified_route_skips_the_chain(monkeypatch):
    # On a pure ABC the joint BC step is certified optimal over all bases,
    # product bases included, so no search runs and the chain is skipped.
    import discordkit.correlations as correlations
    from discordkit.cli import _json_text
    from discordkit.correlations import re_discord_detailed

    solve = correlations.solve

    def no_search(problems):
        runs = solve(problems)
        assert all(run.reasons == (correlations.CERTIFIED,) for run in runs), "a measurement search ran"
        return runs

    monkeypatch.setattr(correlations, "solve", no_search)
    for i in range(3):
        state = haar_random_pure((2, 2, 2), 90 + i).to_density()
        detail = re_discord_detailed(state, (1, 2), FAST)
        assert math.isnan(detail.chain_value)
        assert detail.value == detail.joint_value
        assert detail.joint_value == pytest.approx(von_neumann_entropy(partial_trace(state, (1, 2))), abs=1e-12)
        assert detail.stop_reasons == (correlations.CERTIFIED,)

        row = check_thm3(state, FAST)
        assert row.holds and row.skipped is None
        assert row.provenance["joint_route"] == "certified"
        assert math.isnan(row.provenance["chain_value"])
        text = _json_text(asdict(row))
        prov = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-strict JSON: {c}"))["provenance"]
        assert prov["chain_value"] is None and prov["chain_residual"] is None
        assert prov["joint_route"] == "certified"

    # a mixed input searches the chain and carries no route tag
    monkeypatch.undo()
    row = check_thm3(random_mixed((2, 2, 2), 8, 7400), FAST)
    assert "joint_route" not in row.provenance
    assert row.provenance["chain_residual"] <= 1e-9


def test_kw_pointwise_identity():
    bell_abc = purify(bell_state()).to_density()  # trivial environment
    row = check_kw_pointwise(
        bell_abc, CFG, measurement=projective_from_params(2, (0.0, 0.0))
    )
    assert row.holds and row.lhs <= 1e-9

    for i in range(5):
        abc = purify(random_mixed((2, 2), 2, 7500 + i)).to_density()
        row = check_kw_pointwise(abc, CFG, n_measurements=10)
        assert row.holds and row.lhs <= 1e-9


def _kw_reference(abc: QState, measurements) -> float:
    """Worst kw_pointwise residual by one validated QState per outcome, measurement by measurement."""
    s_a = von_neumann_entropy(partial_trace(abc, (0,)))
    s_c = von_neumann_entropy(partial_trace(abc, (2,)))
    s_b_given_a = von_neumann_entropy(partial_trace(abc, (0, 1))) - s_a
    worst = 0.0
    for m in measurements:
        ens = apply_measurement(abc, m)
        s_b_meas, s_c_meas = (
            math.fsum(p * von_neumann_entropy(partial_trace(s, keep))
                      for p, s in zip(ens.probabilities, ens.states))
            for keep in ((0,), (1,))
        )
        worst = max(worst, abs((s_b_meas - s_b_given_a) + (s_c - s_c_meas) - s_a))
    return worst


def _seeded_measurements(d: int, seed: int, n: int) -> list:
    # One basis per stream, each factored alone.
    return [ProjectiveMeasurement(0, random_isometries([stream(seed, _MEASUREMENT_SALT + j)], d, d)[0])
            for j in range(n)]


@pytest.mark.parametrize(
    "make",
    [
        lambda i: purify(random_mixed((2, 2), 2, i)).to_density(),
        lambda i: haar_random_pure((2, 2, 2), i).to_density(),
        lambda i: haar_random_pure((2, 3, 2), i).to_density(),
    ],
    ids=["purified-2x2-rank2", "pure-2x2x2", "pure-2x3x2"],
)
def test_kw_pointwise_matches_the_per_measurement_loop(make):
    for i in range(8):
        abc = make(i)
        cfg = OptimizerConfig(seed=40 + i)
        row = check_kw_pointwise(abc, cfg, n_measurements=10)
        assert row.provenance == {"n_measurements": 10}
        reference = _kw_reference(abc, _seeded_measurements(abc.dims[0], cfg.seed, 10))
        assert abs(row.lhs - reference) <= 1e-15
        assert row.holds


def test_kw_pointwise_drops_outcomes_below_the_floor():
    # A in |0> (outcome 1 has probability 0), or nearly so (1e-13 < OUTCOME_FLOOR).
    for weight in (0.0, 1e-13, 1e-11):
        a = QState((2,), np.diag([1.0 - weight, weight]))
        for i in range(4):
            abc = tensor(a, haar_random_pure((2, 2), 60 + i).to_density())
            m = ProjectiveMeasurement(0, np.eye(2))
            kept = apply_measurement(abc, m).probabilities.size
            assert kept == (1 if weight < OUTCOME_FLOOR else 2)
            row = check_kw_pointwise(abc, CFG, measurement=m)
            assert abs(row.lhs - _kw_reference(abc, [m])) <= 1e-15
            assert row.holds and row.provenance == {"n_measurements": 1}


def test_kw_pointwise_rejects_a_measurement_off_a():
    abc = purify(random_mixed((2, 3), 2, 5)).to_density()
    for subsystem, d in ((1, 3), (2, 2)):
        with pytest.raises(ValueError, match="subsystem 0"):
            check_kw_pointwise(abc, CFG, measurement=ProjectiveMeasurement(subsystem, np.eye(d)))
    with pytest.raises(ValueError, match="dimension"):
        check_kw_pointwise(abc, CFG, measurement=ProjectiveMeasurement(0, np.eye(3)))
    # A POVM has no orthonormal basis for the identity to read.
    with pytest.raises(TypeError, match="projective"):
        check_kw_pointwise(abc, CFG, measurement=POVM(0, (np.eye(2) / 2.0, np.eye(2) / 2.0)))
    # A mixed tripartite input has no pure ABC form: the row is skipped.
    mixed_abc = tensor(random_mixed((2, 2), 2, 1), QState((2,), np.eye(2) / 2.0))
    row = check_kw_pointwise(mixed_abc, CFG)
    assert row.kind == "identity" and row.skipped == "needs a bipartite or a pure tripartite state"
    assert row.holds is None and all(math.isnan(v) for v in (row.lhs, row.rhs, row.slack))


@pytest.mark.parametrize("n", [0, -3, 2.5, 1.5])
def test_kw_pointwise_rejects_an_empty_check(n):
    # No measurement scored must not read as a pass.
    abc = purify(random_mixed((2, 2), 2, 1)).to_density()
    with pytest.raises(ValueError, match="n_measurements"):
        check_kw_pointwise(abc, CFG, n_measurements=n)


def _outcome(row) -> str:
    """The row's values and flags; repr keeps NaN comparable."""
    return repr((row.lhs, row.rhs, row.slack, row.holds, row.equality, row.skipped))


def test_run_suite_deterministic_and_regenerable():
    # eq5 and eq12 plus the relations that share one analysis's cached values
    relations = ("eq5", "eq12", "monogamy", "thm1", "lindblad", "thm2", "cor2")
    spec = StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": 2}, 99)
    r1 = run_suite(spec, relations, 10, FAST)
    r2 = run_suite(spec, relations, 10, FAST)
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
    summary = r1.relation_summary()
    assert summary["eq5"]["pass"] == 10 and summary["eq12"]["pass"] == 10
    assert r1.n_fail == 0 and r1.n_pass + r1.n_skip == len(r1.rows) == 70

    # every row regenerates bitwise from its provenance, each check on a bare state
    for row in r1.rows:
        spec_again = StateFamilySpec.from_json(row.provenance["family"])
        state = spec_again.sample(row.provenance["sample"])
        again = RELATIONS[row.name](state, FAST)
        assert _outcome(again) == _outcome(row)
        assert {k: row.provenance[k] for k in again.provenance} == again.provenance


def test_run_suite_computes_each_quantity_once(monkeypatch):
    import discordkit.correlations as correlations
    import discordkit.verify as verify

    roof_inputs, opt_inputs = [], []
    eof_upper, min_conditional_entropy = verify.eof_upper, verify.min_conditional_entropy

    def counting_eof_upper(state, *args, **kwargs):
        roof_inputs.append(state.matrix.tobytes())
        return eof_upper(state, *args, **kwargs)

    def counting_min_conditional_entropy(state, measured, cfg=None):
        opt_inputs.append((state.dims, state.matrix.tobytes(), measured))
        return min_conditional_entropy(state, measured, cfg)

    searches = []
    solve = correlations.solve

    def counting_search(problems):
        # Every problem of correlations that searches; a certified one does not.
        runs = solve(problems)
        searches.extend(p.rows.shape for p, run in zip(problems, runs) if run.reasons != (correlations.CERTIFIED,))
        return runs

    paired = []
    minimum_with_roof = verify._minimum_with_roof

    def counting_minimum_with_roof(ab, bc, cfg):
        # The convex roof of BC and the D_A minimum of AB, solved together:
        # one roof input and one minimum input.
        paired.append(ab.dims)
        roof_inputs.append(bc.matrix.tobytes())
        opt_inputs.append((ab.dims, ab.matrix.tobytes(), 0))
        return minimum_with_roof(ab, bc, cfg)

    monkeypatch.setattr(verify, "eof_upper", counting_eof_upper)
    monkeypatch.setattr(verify, "_minimum_with_roof", counting_minimum_with_roof)
    monkeypatch.setattr(correlations, "solve", counting_search)
    descends = record_descends(monkeypatch)
    for module in (verify, correlations):
        monkeypatch.setattr(module, "min_conditional_entropy", counting_min_conditional_entropy)
    # E_F(BC) of the 2x2x3 purification takes the convex roof; it does not
    # vanish, so Theorem 2's hypothesis never computes E_F(AC).  The roof
    # and the D_A search are the two problems that search, and they run as
    # one search (rank(BC) = d_A = 2): one descend of two blocks.
    # thm3 skips a bipartite input; on a pure ABC, D_B, D_C and the joint
    # D_BC are certified without a search, so the chain is skipped.  The AB
    # reduction of a pure (2,2,2) state is a rank-2 two-qubit state, whose
    # D_A minimum the Koashi-Winter certificate settles without a search.
    for spec, roofs, n_searches, descend_sizes in (
        (StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": 3}, 11), 1, 2, PAIRED),
        (StateFamilySpec("haar_pure", {"dims": (2, 2, 2)}, 11), 0, 0, []),
    ):
        roof_inputs.clear()
        opt_inputs.clear()
        searches.clear()
        paired.clear()
        descends.clear()
        report = run_suite(spec, tuple(RELATIONS), 1, FAST)
        assert len(report.rows) == 12
        assert len(paired) == roofs
        assert len(roof_inputs) == len(set(roof_inputs)) == roofs
        # D_A on AB (the input itself when it is bipartite); J_A on AC reads
        # the same minimum, and no dephasing search runs
        assert len(opt_inputs) == len(set(opt_inputs)) == 1
        assert len(searches) == n_searches
        assert descends == descend_sizes

        # monogamy reads the D_A(AB) run that thm1, eq8 and lindblad read as D_A(state)
        opt_inputs.clear()
        analysis = _StateAnalysis(spec.sample(0), FAST)
        rows = {name: check(analysis, FAST) for name, check in RELATIONS.items()}
        d_ab, j_ac = analysis.j_and_d("ab", 0)[1], analysis.j_and_d("ac", 0)[0]
        assert rows["monogamy"].lhs == d_ab + j_ac
        if spec.family == "random_mixed":
            assert analysis.j_and_d("ab", 0) == analysis.j_and_d("state", 0)
            assert rows["thm1"].lhs == d_ab
        assert len(opt_inputs) == 1


def test_run_suite_reads_j_and_d_once_per_source_and_builds_each_provenance_once(monkeypatch):
    import discordkit.verify as verify

    calls = []
    j_and_d = verify._j_and_d

    def counting_j_and_d(state, measured, m):
        calls.append((state, measured))
        return j_and_d(state, measured, m)

    monkeypatch.setattr(verify, "_j_and_d", counting_j_and_d)
    spec = StateFamilySpec("random_mixed", {"dims": (2, 2), "rank": 2}, 1)
    report = run_suite(spec, tuple(RELATIONS), 1, FAST)
    # Seven reads of J or D: of the input measured on A (also read as
    # "ab", the same state) and of the AC reduction, one call each.
    assert len(report.rows) == 12 and len(calls) == len(set(calls)) == 2

    # Each row keeps its own keys first, then the suite's, in that order.
    analysis = _StateAnalysis(spec.sample(0), FAST, tuple(RELATIONS))
    suite_keys = ["family", "sample", "seed", "optimizer"]
    for row in report.rows:
        assert list(row.provenance) == list(RELATIONS[row.name](analysis, FAST).provenance) + suite_keys
    # No two rows share a provenance dict or its family and optimizer dicts.
    first, *rest = report.rows
    first.provenance["family"]["family"] = "changed"
    first.provenance["optimizer"]["seed"] = -1
    first.provenance["sample"] = -1
    assert all(
        row.provenance["family"] == spec.to_json() and row.provenance["optimizer"] == FAST.to_json()
        and row.provenance["sample"] == 0
        for row in rest
    )


def test_run_suite_counts_skips_separately():
    spec = StateFamilySpec("werner_2qubit", {}, 0)
    report = run_suite(spec, ("lindblad",), 1, CFG)
    assert report.n_skip == 1 and report.n_fail == 0
    assert report.recorded_violations == 1
    assert report.all_pass


def test_run_suite_unknown_relation():
    spec = StateFamilySpec("example3", {}, 0)
    with pytest.raises(ValueError):
        run_suite(spec, ("eq5", "nope"), 1, CFG)
    with pytest.raises(ValueError):
        run_suite(spec, (), 1, CFG)
    with pytest.raises(ValueError, match="repeated"):
        run_suite(spec, ("thm1", "eq5", "thm1"), 1, CFG)


def test_relations_table_keeps_its_public_surface():
    # bench/tracing.py rebinds the relations by identity, so each value must
    # stay the module's own check function (functions compare by identity),
    # in this order.
    expected = [
        ("eq5", check_eq5), ("koashi_winter", check_koashi_winter), ("monogamy", check_monogamy),
        ("eq8", check_eq8), ("thm1", check_thm1), ("cor1", check_cor1), ("lindblad", check_lindblad_lemma3),
        ("eq12", check_eq12), ("thm2", check_thm2), ("cor2", check_cor2), ("thm3", check_thm3),
        ("kw_pointwise", check_kw_pointwise),
    ]
    assert list(RELATIONS.items()) == expected


@pytest.mark.parametrize("samples", [0, -3, 2.5, 1.5])
def test_run_suite_rejects_empty_runs(samples):
    spec = StateFamilySpec("example3", {}, 0)
    with pytest.raises(ValueError, match="samples"):
        run_suite(spec, ("eq5",), samples, CFG)


def test_suite_csv_shape():
    spec = StateFamilySpec("haar_pure", {"dims": (2, 2)}, 3)
    report = run_suite(spec, ("eq5",), 3, CFG)
    rows = cli._csv_rows(cli._SUITE_CSV, [(report, row) for row in report.rows])
    assert rows[0] == [
        "suite", "sample", "relation", "lhs", "rhs",
        "slack", "tolerance", "holds", "skipped", "seed",
    ]
    assert len(rows) == 4
    assert rows[1][2] == "eq5" and rows[1][9] == 3
