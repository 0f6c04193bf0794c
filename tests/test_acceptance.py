"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints its own summary line.
"""

import json
import math
import time

import numpy as np
import pytest

from discordkit import (
    OptimizerConfig,
    QState,
    classical_correlation,
    concurrence_2qubit,
    dephase,
    discord,
    eof_2qubit,
    partial_trace,
    projective_from_params,
    purify,
    purity,
    spectrum,
    von_neumann_entropy,
)
from discordkit._descent import CERTIFIED
from discordkit.cli import main
from discordkit.states import (
    StateFamilySpec,
    example3_state,
    haar_random_pure,
    random_mixed,
    werner_2qubit_example4,
)
from discordkit.verify import (
    check_eq5,
    check_eq8,
    check_eq12,
    check_koashi_winter,
    check_kw_pointwise,
    check_thm3,
)

from conftest import roof_search


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_example4_reproduction(tmp_path):
    out = tmp_path / "ex4.json"
    start = time.monotonic()
    rc = main(["example", "example4", "--format", "json", "--out", str(out)])
    elapsed = time.monotonic() - start
    assert rc == 0
    payload = json.loads(out.read_text())
    values = {row["quantity"]: row["computed"] for row in payload["rows"]}
    assert 0.121 <= values["D_A"] <= 0.131
    assert 0.077 <= values["J_A"] <= 0.087
    for side in ("measured_a", "measured_b"):
        assert payload["diagnostics"][side]["spread"] <= 1e-6
    assert elapsed < 10.0
    _report(
        "1 (example4)",
        f"D_A={values['D_A']:.4f} J_A={values['J_A']:.4f} in {elapsed:.1f}s",
    )


def test_criterion_2_example3_reproduction():
    state = example3_state()
    s_a = von_neumann_entropy(partial_trace(state, (0,)))
    s_b = von_neumann_entropy(partial_trace(state, (1,)))
    s_ab = von_neumann_entropy(state)
    assert abs(s_a - 2.0) <= 1e-9
    assert abs(s_b - 1.0) <= 1e-9
    assert abs(s_ab - 1.0) <= 1e-9
    assert abs(purity(state) - 0.5) <= 1e-12

    rho_bc = partial_trace(purify(state).to_density(), (1, 2))
    ef = eof_2qubit(rho_bc).value
    assert abs(ef) <= 1e-9

    d_a = discord(state, 0, OptimizerConfig(restarts=12, seed=2)).value
    assert abs(d_a - (s_b + ef)) <= 1e-3
    assert abs(d_a - 1.0) <= 1e-3
    assert abs((s_a - s_ab) - s_b) <= 1e-9  # saturation condition
    _report("2 (example3)", f"D_A={d_a:.6f}, E_F(BC)={ef:.1e}")


def test_criterion_3_pure_state_discords():
    cfg = OptimizerConfig(restarts=10, seed=3)
    worst_a = worst_b = worst_dist = 0.0
    for dims in ((2, 2), (2, 3)):
        for i in range(50):
            rho = haar_random_pure(dims, 1000, index=i).to_density()
            s_a = von_neumann_entropy(partial_trace(rho, (0,)))
            s_b = von_neumann_entropy(partial_trace(rho, (1,)))
            d_a = discord(rho, 0, cfg).value
            d_b = discord(rho, 1, cfg).value
            worst_a = max(worst_a, abs(d_a - s_b))
            worst_b = max(worst_b, abs(d_b - s_a))
            worst_dist = max(worst_dist, abs(d_a - d_b))
    assert worst_a <= 1e-4
    assert worst_b <= 1e-4
    assert worst_dist <= 2e-4
    _report(
        "3 (pure states)",
        f"max|D_A-S(B)|={worst_a:.1e} max|D_B-S(A)|={worst_b:.1e} max dist={worst_dist:.1e}",
    )


def test_criterion_4_koashi_winter_suite():
    cfg = OptimizerConfig(restarts=8, seed=4)
    kw_pass = eq8_pass = 0
    for i in range(100):
        state = random_mixed((2, 2), 2, 2000 + i)
        kw = check_koashi_winter(state, cfg)
        e8 = check_eq8(state, cfg)
        assert kw.skipped is None and e8.skipped is None
        kw_pass += bool(kw.holds and kw.slack <= 1e-3)
        eq8_pass += bool(e8.holds and e8.slack <= 1e-3)
    assert kw_pass == 100
    assert eq8_pass == 100
    _report("4 (Koashi-Winter suite)", f"{kw_pass}/100 tradeoff, {eq8_pass}/100 eq8")


def _acceptance_population():
    """Representative states across the acceptance families (cheap checks only)."""
    states = [example3_state(), werner_2qubit_example4()]
    for i in range(0, 50, 5):
        states.append(haar_random_pure((2, 2), 1000, index=i).to_density())
        states.append(haar_random_pure((2, 3), 1000, index=i).to_density())
    for i in range(0, 100, 10):
        states.append(random_mixed((2, 2), 2, 2000 + i))
    for i in range(0, 200, 20):
        states.append(random_mixed((2, 2, 2), 8, 5000 + i))
        states.append(purify(random_mixed((2, 2), 1 + i % 4, 3000 + i)).to_density())
    return states


def test_criterion_5_exact_identities():
    worst_eq12 = 0.0
    for i in range(200):
        state = random_mixed((2, 2), 1 + i % 4, 3000 + i)
        row = check_eq12(state)
        assert row.holds
        worst_eq12 = max(worst_eq12, row.slack)
    assert worst_eq12 <= 1e-9

    cfg = OptimizerConfig(seed=5)
    worst_kw = 0.0
    for i in range(50):
        abc = purify(random_mixed((2, 2), 2, 4000 + i)).to_density()
        row = check_kw_pointwise(abc, cfg, n_measurements=10)
        assert row.holds
        worst_kw = max(worst_kw, row.lhs)
    assert worst_kw <= 1e-9

    worst_eq5 = 0.0
    for state in _acceptance_population():
        row = check_eq5(state)
        assert row.slack >= -1e-9
        worst_eq5 = min(worst_eq5, row.slack)
    _report(
        "5 (exact identities)",
        f"eq12 max residual {worst_eq12:.1e}, pointwise max {worst_kw:.1e}",
    )


def test_criterion_6_conjecture_i_guard():
    cfg = OptimizerConfig(restarts=6, seed=6)
    checked = 0
    candidates = [example3_state(), werner_2qubit_example4()]
    candidates += [haar_random_pure((2, 2), 60, index=i).to_density() for i in range(8)]
    candidates += [random_mixed((2, 2), 2, 6000 + i) for i in range(8)]
    candidates += [random_mixed((2, 3), 3, 6100 + i) for i in range(4)]
    candidates += [
        StateFamilySpec("classical_quantum", {"k": 2, "dims": (2,), "rank": 1}, 61).sample(i)
        for i in range(4)
    ]
    from discordkit.states import werner_qudit

    candidates += [werner_qudit(3, x) for x in (-0.8, -0.2, 0.4)]
    for state in candidates:
        for side in range(2):
            # discord() itself raises DiscordBoundError on violation
            est = discord(state, side, cfg).value
            s_measured = von_neumann_entropy(partial_trace(state, (side,)))
            assert est <= s_measured + 1e-4
            checked += 1
    _report("6 (entropy bound guard)", f"{checked} estimates within S(measured)+1e-4")


def test_criterion_7_theorem3():
    cfg = OptimizerConfig(restarts=2, max_iter=400, seed=7)
    passes = 0
    worst_chain = -np.inf
    for i in range(200):
        state = random_mixed((2, 2, 2), 8, 5000 + i)
        row = check_thm3(state, cfg)
        assert row.provenance["chain_residual"] <= 1e-9
        worst_chain = max(worst_chain, row.provenance["chain_residual"])
        assert row.slack >= -2e-3
        passes += bool(row.holds)
    assert passes == 200

    # degenerate case: trivial A times a pure bipartite state reduces the
    # bound to entropy subadditivity, checked with exact eigenbasis witnesses
    psi = haar_random_pure((2, 2), 71)
    trivial_a = QState((2,), np.diag([1.0, 0.0]))
    state = QState((2, 2, 2), np.kron(trivial_a.matrix, psi.to_density().matrix))
    s0 = von_neumann_entropy(state)
    s_b = von_neumann_entropy(partial_trace(state, (1,)))
    s_c = von_neumann_entropy(partial_trace(state, (2,)))
    s_bc = von_neumann_entropy(partial_trace(state, (1, 2)))

    def witness_delta(sub: int) -> float:
        basis = spectrum(partial_trace(state, (sub,))).eigenvectors
        from discordkit import ProjectiveMeasurement

        dephased = dephase(state, ProjectiveMeasurement(sub, basis))
        return von_neumann_entropy(dephased) - s0

    merged = QState((2, 4), state.matrix)
    joint_basis = spectrum(partial_trace(merged, (1,))).eigenvectors
    from discordkit import ProjectiveMeasurement

    delta_joint = von_neumann_entropy(
        dephase(merged, ProjectiveMeasurement(1, joint_basis))
    ) - s0
    assert abs(witness_delta(1) - s_b) <= 1e-9
    assert abs(witness_delta(2) - s_c) <= 1e-9
    assert abs(delta_joint - s_bc) <= 1e-9
    assert s_bc <= s_b + s_c + 1e-9
    _report("7 (discord subadditivity)", f"200/200, worst chain residual {worst_chain:.1e}")


def test_criterion_8_wootters_cross_validation():
    worst = -np.inf
    best = np.inf
    for i in range(100):
        state = random_mixed((2, 2), 4, 8000 + i)
        # The search alone, at the default budget: eof_upper certifies these
        # states without one.
        roof = roof_search(state)
        assert CERTIFIED not in roof.stop_reasons
        gap = roof.crosscheck_gap
        assert gap is not None
        assert -1e-6 <= gap <= 5e-3
        worst = max(worst, gap)
        best = min(best, gap)
    assert concurrence_2qubit(werner_2qubit_example4()) == 0.0
    _report("8 (Wootters cross-validation)", f"gap range [{best:.1e}, {worst:.1e}]")


def test_criterion_9_hunt_machinery(tmp_path):
    out = tmp_path / "hunt.json"
    start = time.monotonic()
    rc = main(
        ["hunt", "--d", "6", "--x=-0.9:-0.9:1", "--restarts", "4", "--max-iter", "400",
         "--seed", "9", "--format", "json", "--out", str(out)]
    )
    elapsed = time.monotonic() - start
    assert rc == 0
    assert elapsed < 600.0
    payload = json.loads(out.read_text())
    assert "non-certifying" in payload["label"]
    row = payload["rows"][0]
    traj = row["trajectory"]
    assert all(b <= a + 1e-12 for a, b in zip(traj, traj[1:]))
    assert row["gap"] == row["d_upper"] - row["s_env"]
    assert math.isfinite(row["gap"])
    _report(
        "9 (hunt, non-gating)",
        f"d=6 x=-0.9 gap={row['gap']:.3f} in {elapsed:.1f}s",
    )


def test_criterion_10_determinism(tmp_path):
    pairs = []
    for tag, args in {
        "example4": ["example", "example4", "--seed", "10", "--format", "json"],
        "compute": ["compute", "--family", "example3", "--seed", "10", "--restarts",
                     "6", "--format", "json"],
        "verify": ["verify", "--suite", "eq5,eq12", "--family", "random_mixed",
                    "--dims", "2x2", "--rank", "2", "--samples", "5", "--seed", "10",
                    "--format", "csv"],
        "hunt": ["hunt", "--d", "2", "--x=-0.4:-0.4:1", "--restarts", "4", "--seed",
                  "10", "--format", "json"],
    }.items():
        a = tmp_path / f"{tag}_a"
        b = tmp_path / f"{tag}_b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        pairs.append(tag)
    _report("10 (determinism)", f"byte-identical outputs for {', '.join(pairs)}")
