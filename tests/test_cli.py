"""Command-line interface: subcommands, formats, exit codes, determinism."""

import csv
import io
import json
import os
import sys
from dataclasses import astuple

import numpy as np
import pytest

from discordkit import OptimizerConfig, PureStateVector, partial_trace, purify, state_to_json, werner_qudit
from discordkit import cli, correlations, qstate
from discordkit.cli import main
from discordkit.states import example3_state
from discordkit.verify import RELATIONS

from conftest import bell_state, calls_on, record_eigensolves


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(state_to_json(bell_state())))
    return str(path)


def test_compute_bell_state(bell_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        ["compute", "--state", bell_file, "--restarts", "4", "--format", "json",
         "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["d_a"] == pytest.approx(1.0, abs=1e-3)
    assert report["d_b"] == pytest.approx(1.0, abs=1e-3)
    assert report["measurement_class"] == "projective-optimal"


def test_compute_family_example3(tmp_path):
    out = tmp_path / "ex3.json"
    rc = main(
        ["compute", "--family", "example3", "--restarts", "8", "--format", "json",
         "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["s_a"] == pytest.approx(2.0, abs=1e-9)
    assert report["d_a"] == pytest.approx(1.0, abs=1e-3)


def test_compute_csv_column_order(bell_file, tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["compute", "--state", bell_file, "--restarts", "2", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == ",".join(cli._REPORT_CSV)


def test_compute_error_paths(tmp_path, capsys):
    rc = main(["compute", "--state", str(tmp_path / "missing.json")])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["compute", "--state", str(bad)])
    assert rc == 2
    assert "malformed" in capsys.readouterr().err

    not_a_state = tmp_path / "nostate.json"
    not_a_state.write_text(json.dumps({"dims": [2]}))
    rc = main(["compute", "--state", str(not_a_state)])
    assert rc == 2

    rc = main(["compute"])  # neither --state nor --family
    assert rc == 2


def test_verify_exit_codes(capsys):
    rc = main(
        ["verify", "--suite", "eq12", "--family", "haar_pure", "--dims", "2x2x2",
         "--samples", "5", "--seed", "3"]
    )
    assert rc == 0
    assert "eq12: 5 pass" in capsys.readouterr().out

    rc = main(["verify", "--suite", "bogus", "--family", "example3"])
    assert rc == 2

    rc = main(["verify", "--suite", "eq5", "--family", "random_mixed"])  # missing dims
    assert rc == 2


@pytest.mark.parametrize(
    "suite, message", [("thm1,thm1", "repeated relations ['thm1']"), (",", "--suite names no relation")]
)
def test_verify_rejects_a_suite_without_distinct_names(suite, message, capsys):
    rc = main(["verify", "--suite", suite, "--family", "example3", "--samples", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("family", [["haar_pure", "--dims", "2"], ["random_mixed", "--dims", "3", "--rank", "2"]])
def test_verify_on_a_one_subsystem_family_skips_every_row(family, tmp_path, capsys):
    out = tmp_path / "one.json"
    suite = ",".join(RELATIONS)
    assert main(["verify", "--suite", suite, "--family", *family, "--samples", "2", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary == {name: {"pass": 0, "fail": 0, "skip": 2, "recorded_violations": 0} for name in RELATIONS}
    assert capsys.readouterr().err == ""


def test_verify_survey_mode_exit_zero(capsys):
    rc = main(
        ["verify", "--suite", "lindblad", "--family", "werner_2qubit", "--samples", "1",
         "--restarts", "4"]
    )
    assert rc == 0
    assert "recorded violations" in capsys.readouterr().out


def test_verify_csv_output(tmp_path):
    out = tmp_path / "suite.csv"
    rc = main(
        ["verify", "--suite", "eq5,eq12", "--family", "random_mixed", "--dims", "2x2",
         "--rank", "2", "--samples", "4", "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "suite,sample,relation,lhs,rhs,slack,tolerance,holds,skipped,seed"
    assert len(lines) == 9


def test_verify_csv_on_stdout_is_only_csv(capsys):
    # The report is on stdout, so the summary lines go to stderr.
    rc = main(
        ["verify", "--suite", "eq5", "--family", "random_mixed", "--dims", "2x2",
         "--rank", "2", "--samples", "2", "--format", "csv"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == ["suite", "sample", "relation", "lhs", "rhs", "slack", "tolerance", "holds", "skipped", "seed"]
    assert [r[1:3] for r in rows[1:]] == [["0", "eq5"], ["1", "eq5"]]
    assert captured.err == "eq5: 2 pass, 0 fail, 0 skip\n"


def test_verify_json_without_out_warns_on_stderr(tmp_path, capsys):
    # Without --out the JSON report is not written: stdout keeps the summary
    # lines, byte for byte as with --out, and stderr says how to get it.
    args = ["verify", "--suite", "eq5,eq12", "--family", "random_mixed", "--dims", "2x2",
            "--rank", "2", "--samples", "2", "--format", "json"]
    assert main(args) == 0
    bare = capsys.readouterr()
    assert main(args + ["--out", str(tmp_path / "suite.json")]) == 0
    written = capsys.readouterr()
    assert bare.out == written.out == "eq5: 2 pass, 0 fail, 0 skip\neq12: 2 pass, 0 fail, 0 skip\n"
    assert written.err == ""
    assert bare.err == "note: no JSON report written; --out FILE writes it\n"


def test_example_subcommands(tmp_path, capsys):
    rc = main(["example", "example4", "--restarts", "6"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "D_A" in text and "reference" in text

    out = tmp_path / "ex2.json"
    rc = main(["example", "example2", "--seed", "5", "--restarts", "6", "--format",
               "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    for row in payload["rows"]:
        assert abs(row["delta"]) <= 1e-4

    rc = main(["example", "nonsense"])
    assert rc == 2


def test_hunt_small_sweep(tmp_path, capsys):
    out = tmp_path / "hunt.json"
    rc = main(
        ["hunt", "--d", "2", "--x=-0.6:-0.2:2", "--restarts", "4", "--format", "json",
         "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["label"] == "non-certifying upper estimate of D_A"
    assert len(payload["rows"]) == 2
    for row in payload["rows"]:
        traj = row["trajectory"]
        assert all(b <= a + 1e-12 for a, b in zip(traj, traj[1:]))
        assert row["gap"] < 0.0  # no violation expected at d = 2


def test_hunt_bad_range(capsys):
    assert main(["hunt", "--d", "2", "--x", "0.1:0.2"]) == 2
    assert main(["hunt", "--d", "1", "--x=-0.5:-0.5:1"]) == 2
    assert main(["hunt", "--d", "2", "--x=-1.5:-0.5:2"]) == 2
    assert main(["hunt", "--d", "2", "--x=nan:0.5:2"]) == 2
    # Infinite or huge endpoints are refused before the grid is built, so
    # np.linspace never warns on them.
    for sweep in ("0.1:inf:2", "-inf:0.5:2", "1e308:-1e308:3"):
        capsys.readouterr()
        assert main(["hunt", "--d", "2", f"--x={sweep}"]) == 2
        assert capsys.readouterr() == ("", "error: hunt requires x values inside (-1, 1)\n")
    # A bad number names the argument it came from, as a bad --dims does.
    for sweep in ("0.1:0.2:x", "a:0.2:3", "0.1:0.2:1.5", "0.1:0.2"):
        capsys.readouterr()
        assert main(["hunt", "--d", "2", f"--x={sweep}"]) == 2
        assert capsys.readouterr() == ("", f"error: bad range '{sweep}'; expected start:end:count\n")
    assert main(["compute", "--family", "werner_qudit", "--d", "3", "--x", "abc"]) == 2
    assert capsys.readouterr() == ("", "error: bad --x value 'abc'\n")


def _count_entropy_calls(monkeypatch) -> dict:
    """Patch ``von_neumann_entropy`` everywhere in the package to log the dims of each call's state."""
    calls = {"entropy": []}
    entropy = qstate.von_neumann_entropy

    def counting_entropy(state):
        calls["entropy"].append(state.dims)
        return entropy(state)

    for name, module in list(sys.modules.items()):
        if name.startswith("discordkit") and hasattr(module, "von_neumann_entropy"):
            monkeypatch.setattr(module, "von_neumann_entropy", counting_entropy)
    return calls


def test_hunt_takes_each_entropy_once(monkeypatch, capsys):
    # Each hunt row reads S(A), S(B) and S(AB) once, through the one
    # _j_and_d of its conditional-entropy minimum; a discord above its
    # proved bound still exits 1.
    calls = _count_entropy_calls(monkeypatch)
    assert main(["hunt", "--d", "2", "--x=-0.5:0.5:3", "--restarts", "2"]) == 0
    assert calls["entropy"] == [(2,), (2,), (2, 2)] * 3
    monkeypatch.setattr(correlations, "CONJECTURE_I_SLACK", -2.0)
    capsys.readouterr()
    assert main(["hunt", "--d", "2", "--x=0.5:0.5:1", "--restarts", "2"]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: discord estimate")


def test_example3_takes_each_entropy_once(monkeypatch, capsys):
    # example3 reads S(A), S(B) and S(AB) from the run behind D_A, not a
    # second time of its own: 3 entropies.  Each matrix is decomposed once:
    # rho at construction, whose pair serves S(AB), D_A's factor and the
    # purification; then rho_B, and rho_A and rho_BC, both I/4, one each.
    rho = example3_state()
    bc = partial_trace(purify(rho).to_density(), (1, 2))
    assert np.allclose(bc.matrix, np.eye(4) / 4.0) and np.allclose(partial_trace(rho, (0,)).matrix, bc.matrix)
    calls = _count_entropy_calls(monkeypatch)
    solved = record_eigensolves(monkeypatch)
    assert main(["example", "example3", "--format", "json"]) == 0
    assert calls["entropy"] == [(4,), (2,), (4, 2)]
    assert [calls_on(solved, m) for m in (rho.matrix, partial_trace(rho, (1,)).matrix, bc.matrix)] == [1, 1, 2]
    assert len(solved) == 4


@pytest.mark.parametrize("x", [-0.5, 0.3])
def test_hunt_decomposes_each_werner_state_once(x, monkeypatch, capsys):
    # A d = 6 hunt row decomposes its 36 x 36 Werner state once, when the
    # constructor validates it; S(AB) and the measurement factor read that
    # pair (three decompositions before the state kept it).
    rho = werner_qudit(6, x).matrix
    solved = record_eigensolves(monkeypatch)
    assert main(["hunt", "--d", "6", f"--x={x}:{x}:1", "--format", "json"]) == 0
    assert sum(a.shape[-2:] == (36, 36) for a in solved) == 1
    assert calls_on(solved, rho) == 1


@pytest.mark.parametrize("rank", ["0", "9", "-1"])
def test_classical_quantum_rank_out_of_range_is_a_usage_error(rank, capsys):
    assert main(["compute", "--family", "classical_quantum", "--dims", "2x2", "--rank", rank]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: classical_quantum rank must be in [1, 2]\n" and captured.out == ""


@pytest.mark.parametrize(
    "family, flags, message",
    [
        ("haar_pure", ["--dims", "2x2", "--rank", "3"], "haar_pure takes no 'rank' parameter (it takes dims)"),
        ("werner_2qubit", ["--dims", "9x9"], "werner_2qubit takes no 'dims' parameter (it takes none)"),
        ("random_mixed", ["--dims", "2x2", "--d", "3"], "random_mixed takes no 'd' parameter (it takes dims, rank)"),
        ("classical_quantum", ["--dims", "2x2", "--x", "0.5"], "classical_quantum takes no 'x' parameter"),
        ("random_mixed", [], "random_mixed requires a 'dims' parameter"),
        ("werner_qudit", ["--d", "3"], "werner_qudit requires a 'x' parameter"),
    ],
    ids=["haar_pure-rank", "werner_2qubit-dims", "random_mixed-d", "classical_quantum-x", "random_mixed-no-dims",
         "werner_qudit-no-x"],
)
def test_a_family_flag_the_family_does_not_take_is_a_usage_error(family, flags, message, capsys):
    # Every family flag given reaches the spec, which refuses the ones its
    # family does not take, and a missing one, before anything is computed.
    for command in ("compute", "verify"):
        suite = ["--suite", "eq5"] if command == "verify" else []
        assert main([command, *suite, "--family", family, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert captured.out == ""


_ONE_OF_EACH = [
    ["compute", "--family", "example3"],
    ["verify", "--suite", "eq5", "--family", "example3"],
    ["example", "example4"],
    ["hunt", "--d", "2", "--x=-0.5:-0.5:1"],
]


@pytest.mark.parametrize("command", _ONE_OF_EACH, ids=["compute", "verify", "example", "hunt"])
@pytest.mark.parametrize(
    "bad",
    [["--restarts", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"], ["--max-iter", "0"],
     ["--seed", "-1"], ["--seed", str(1 << 64)]],
    ids=["restarts", "tol", "tol-nan", "tol-inf", "max-iter", "seed-negative", "seed-2**64"],
)
def test_bad_optimizer_config_is_a_usage_error(command, bad, capsys):
    assert main(command + bad) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("command", _ONE_OF_EACH, ids=["compute", "verify", "example", "hunt"])
@pytest.mark.parametrize("out", ["missing-dir/x.out", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_is_a_usage_error(command, out, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if command[0] == "verify":
        command = command + ["--samples", "1", "--format", "csv"]
    assert main(command + ["--restarts", "2", "--out", out]) == 2
    captured = capsys.readouterr()
    # The path is refused before any computation: no hunt progress line.
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", _ONE_OF_EACH, ids=["compute", "verify", "example", "hunt"])
def test_a_write_that_fails_after_computing_is_a_usage_error(command, capsys):
    # /dev/full passes the --out checks made before the computation; only
    # the write shows that the device is full.
    if command[0] == "verify":
        command = command + ["--samples", "1", "--format", "csv"]
    assert main(command + ["--restarts", "2", "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and captured.err.endswith(errors[0] + "\n")
    assert captured.out == ""


def test_optimizer_options_default_to_the_config_defaults():
    for command in _ONE_OF_EACH:
        args = cli._build_parser().parse_args(command)
        given = (args.restarts, args.tol, args.max_iter, args.seed)
        assert given == astuple(OptimizerConfig())


_WRITER_CASES = [
    ["compute", "--family", "example3", "--format", "human"],
    ["compute", "--family", "example3", "--format", "json"],
    ["compute", "--family", "example3", "--format", "csv"],
    ["verify", "--suite", "eq5,eq12", "--family", "random_mixed", "--dims", "2x2", "--rank", "2",
     "--samples", "2", "--format", "csv"],
    *(["example", name, "--format", fmt] for name in ("example2", "example3", "example4")
      for fmt in ("human", "json")),
    *(["hunt", "--d", "3", "--x=-0.5:-0.5:1", "--format", fmt] for fmt in ("json", "csv", "human")),
]


@pytest.mark.parametrize("command", _WRITER_CASES, ids=lambda c: "-".join(c[i] for i in (0, 1, -1)))
def test_out_file_holds_exactly_what_stdout_gets(command, tmp_path, capsys):
    command = command + ["--restarts", "2", "--seed", "5"]
    assert main(command) == 0
    on_stdout = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "report"
    assert main(command + ["--out", str(out)]) == 0
    assert out.read_bytes() == on_stdout and on_stdout


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_empty_runs(samples, capsys):
    rc = main(["verify", "--suite", "eq5", "--family", "example3", "--samples", samples])
    assert rc == 2
    captured = capsys.readouterr()
    assert "samples must be >= 1" in captured.err and captured.out == ""


def test_unknown_flags_rejected():
    assert main(["compute", "--family", "example3", "--bogus-flag"]) == 2


def test_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["example", "example4", "--seed", "7", "--restarts", "4", "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    args = ["verify", "--suite", "eq5", "--family", "random_mixed", "--dims", "2x2",
            "--rank", "2", "--samples", "3", "--seed", "11", "--format", "csv"]
    assert main(args + ["--out", str(c)]) == 0
    assert main(args + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_json_output_is_strict(tmp_path):
    # thm3 needs a tripartite state, so the bipartite row is skipped (lhs NaN).
    out = tmp_path / "verify.json"
    rc = main(["verify", "--suite", "thm3", "--family", "random_mixed", "--dims", "2x2",
               "--rank", "2", "--samples", "1", "--format", "json", "--out", str(out)])
    assert rc == 0
    row = _strict_json(out)["rows"][0]
    assert row["skipped"] and row["lhs"] is None and row["slack"] is None

    # A Werner row is certified: a one-restart run with no iterations, so it
    # counts toward a finite spread under any iteration cap.
    out = tmp_path / "hunt.json"
    rc = main(["hunt", "--d", "2", "--x=0.3:0.3:1", "--restarts", "1", "--max-iter", "5",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    row = _strict_json(out)["rows"][0]
    assert row["converged"] is True and row["spread"] <= 10 * OptimizerConfig().tol


def test_full_suite_on_a_mixed_tripartite_family_writes_strict_json(tmp_path, capsys):
    # thm3 is written for mixed ABC and is evaluated; the rows that need a
    # pure ABC skip with a reason instead of aborting the suite.
    out = tmp_path / "verify.json"
    suite = ",".join(RELATIONS)
    rc = main(["verify", "--suite", suite, "--family", "random_mixed", "--dims", "2x2x2", "--rank", "8",
               "--samples", "2", "--restarts", "2", "--max-iter", "400", "--out", str(out)])
    assert rc == 0 and capsys.readouterr().err == ""
    report = _strict_json(out)
    evaluated = {name for name, counts in report["summary"].items() if counts["pass"] == 2}
    assert list(report["summary"]) == list(RELATIONS) and evaluated == {"eq5", "thm3"}
    skipped = {row["name"]: row["skipped"] for row in report["rows"]}
    for name in ("monogamy", "eq12", "kw_pointwise"):
        assert skipped[name] == "needs a bipartite or a pure tripartite state"


def test_compute_accepts_a_valid_edge_input(tmp_path, capsys):
    # The loader accepts a minimum eigenvalue of -0.9e-10; the A marginal's
    # -1.8e-10 is a derived state and is not validated again.
    path = tmp_path / "edge.json"
    diagonal = [-0.9e-10, -0.9e-10, 1.0 + 1.8e-10, 0.0]
    matrix = [[[diagonal[i] if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix}))
    out = tmp_path / "edge-report.json"
    assert main(["compute", "--state", str(path), "--format", "json", "--out", str(out)]) == 0
    report = _strict_json(out)
    assert report["d_a"] == pytest.approx(0.0, abs=1e-9) and report["s_ab"] == pytest.approx(0.0, abs=1e-9)
    assert main(["compute", "--state", str(path), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out) == report


@pytest.mark.parametrize("dim", [2.5, 2.0])
def test_compute_rejects_a_non_integral_dimension(dim, tmp_path, capsys):
    # dims are integers: 2.5 is not read as 2, nor 2.0 as 2.
    path = tmp_path / "state.json"
    matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    path.write_text(json.dumps({"dims": [dim, 2], "matrix": matrix}))
    assert main(["compute", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: bad 'dims' field: dims must be an integer, got {dim!r}\n"


def test_hunt_flat_werner_objective_converges(tmp_path):
    out = tmp_path / "hunt.json"
    rc = main(["hunt", "--d", "3", "--x=-0.5:0.5:2", "--restarts", "4", "--seed", "3",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    for row in _strict_json(out)["rows"]:
        assert row["converged"] is True
        assert row["spread"] <= 10 * OptimizerConfig().tol


def test_hunt_rows_say_their_route(tmp_path, monkeypatch, capsys):
    # A Werner row is certified by symmetry: one restart, spread 0.  With
    # the symmetry test failing every state, the same row searches.  The
    # route is a JSON field only: the CSV columns stay as they were.
    out = tmp_path / "hunt.json"
    argv = ["hunt", "--d", "3", "--x=-0.5:0.5:3", "--restarts", "4", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    certified = _strict_json(out)["rows"]
    for row in certified:
        assert row["route"] == "certified" and len(row["trajectory"]) == 1 and row["spread"] == 0.0
    monkeypatch.setattr(correlations, "WERNER_TOL", -1.0)
    assert main(argv) == 0
    searched = _strict_json(out)["rows"]
    for row, ref in zip(searched, certified):
        assert row["route"] == "searched" and len(row["trajectory"]) == 4
        assert row["d_upper"] == pytest.approx(ref["d_upper"], abs=1e-9)
    capsys.readouterr()
    assert main(argv[:-4] + ["--format", "csv"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "x,s_measured,s_env,j_classical,d_upper,gap,label"


def test_compute_certifies_pure_sides(tmp_path):
    # Both sides of a pure state are certified by the eigenbasis of the
    # marginal: one restart, spread 0, in strict JSON.
    out = tmp_path / "compute.json"
    assert main(["compute", "--family", "haar_pure", "--dims", "2x3", "--format", "json", "--out", str(out)]) == 0
    report = _strict_json(out)
    for side in ("measured_a", "measured_b"):
        assert report["diagnostics"][side]["stop_reasons"] == ["certified"]
        assert report["diagnostics"][side]["spread"] == 0.0
    assert report["d_a"] == pytest.approx(report["s_b"], abs=1e-12)


def test_cached_parser_writes_what_a_fresh_parser_writes(tmp_path, capsys):
    # One process: hunt, verify, a bad --tol (exit 2), hunt again, then help
    # texts; each must match the same call on a freshly built parser.
    calls = [
        ["hunt", "--d", "2", "--x=-0.5:0.5:3", "--restarts", "2", "--seed", "4", "--format", "csv"],
        ["verify", "--suite", "eq5,thm1", "--family", "random_mixed", "--dims", "2x2",
         "--rank", "2", "--samples", "2", "--seed", "3", "--restarts", "2"],
        ["example", "example4", "--tol", "nan"],
        ["hunt", "--d", "3", "--x=0.1:0.1:1", "--restarts", "2", "--format", "json"],
        ["--help"],
        ["hunt", "--help"],
    ]

    def run(argv, name, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        out = tmp_path / name
        rc = main(argv if "--help" in argv else argv + ["--out", str(out)])
        captured = capsys.readouterr()
        return rc, out.read_bytes() if out.exists() else None, captured.out, captured.err

    cli._build_parser.cache_clear()
    cached = [run(argv, f"cached{i}", fresh=False) for i, argv in enumerate(calls)]
    assert cli._build_parser.cache_info().misses == 1
    fresh = [run(argv, f"fresh{i}", fresh=True) for i, argv in enumerate(calls)]
    assert cached == fresh
    assert [rc for rc, *_ in cached] == [0, 0, 2, 0, 0, 0]
    assert cached[0][1] and cached[1][1] and cached[3][1] and cached[2][1] is None
    assert cached[2][3].startswith("error: ")
    assert cached[4][2].startswith("usage: discordkit") and "hunt" in cached[5][2]
