"""Command-line front end.

Subcommands:
  compute   correlation report (entropies, I, J, D, discord distance) for a
            state loaded from JSON or generated from a named family
  verify    run named verification suites over a seeded state family
  example   reproduce a bundled worked example with reference values
  hunt      sweep Werner states and report the non-certifying upper estimate
            of the purified discord against the environment entropy

Every subcommand writes through one writer, ``_write``: JSON, CSV or a
human-readable table, to ``--out`` or stdout.  The ``compute`` and ``verify``
CSV column orders are listed in ``--help``; ``hunt``'s human table heads the
environment entropy S(AB) ``S(env)``.

Exit codes: 0 success; 1 verification failure, or a discord estimate above
its proved bound (``DiscordBoundError``); 2 usage or input error, an
``--out`` path that cannot be written included.  A path that names a
directory or a file in a missing directory is refused before any
computation runs; a write that fails after it (a full device) exits 2 too.
Outputs are deterministic for a fixed seed (no timestamps), so repeated
runs produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import operator
import os
import sys

import numpy as np

from .config import OptimizerConfig
from .correlations import (
    CERTIFIED,
    DiscordBoundError,
    _measured_run,
    correlation_report,
)
from .entanglement import eof_2qubit
from .qstate import (
    InvalidStateError,
    QState,
    partial_trace,
    purify,
    purity,
    state_from_json,
)
from .states import (
    FAMILIES,
    StateFamilySpec,
    example3_state,
    haar_random_pure,
    werner_2qubit_example4,
    werner_qudit,
)
from .verify import RELATIONS, run_suite

HUNT_LABEL = "non-certifying upper estimate of D_A"

# The compute report's quantities: CSV column name -> human table label.
_REPORT_QUANTITIES = {
    "s_a": "S(A)", "s_b": "S(B)", "s_ab": "S(AB)", "mutual_information": "I(A:B)",
    "j_a": "J_A", "j_b": "J_B", "d_a": "D_A", "d_b": "D_B", "discord_distance": "discord distance",
}
# Each CSV layout maps a column name to the function that reads its cell from
# one record, so the header and the rows come from one definition.
_REPORT_CSV = {
    **{name: operator.attrgetter(name) for name in _REPORT_QUANTITIES},
    "j_a_spread": lambda report: report.diagnostics["measured_a"]["spread"],
    "j_b_spread": lambda report: report.diagnostics["measured_b"]["spread"],
    "a_converged": lambda report: report.diagnostics["measured_a"]["converged"],
    "b_converged": lambda report: report.diagnostics["measured_b"]["converged"],
}
_SUITE_CSV = {
    "suite": lambda report, row: report.suite_id,
    "sample": lambda report, row: row.provenance["sample"],
    "relation": lambda report, row: row.name,
    "lhs": lambda report, row: row.lhs,
    "rhs": lambda report, row: row.rhs,
    "slack": lambda report, row: row.slack,
    "tolerance": lambda report, row: row.tolerance,
    "holds": lambda report, row: "" if row.holds is None else row.holds,
    "skipped": lambda report, row: row.skipped or "",
    "seed": lambda report, row: row.provenance["seed"],
}
_HUNT_CSV = {
    **{name: operator.itemgetter(name) for name in ("x", "s_measured", "s_env", "j_classical", "d_upper", "gap")},
    "label": lambda row: HUNT_LABEL,
}

_EPILOG = f"""\
compute CSV column order:
  {', '.join(_REPORT_CSV)}
verify CSV column order:
  {', '.join(_SUITE_CSV)}
known suites: {', '.join(sorted(RELATIONS))}
known families: {', '.join(FAMILIES)}
"""


def _add_optimizer_args(p: argparse.ArgumentParser):
    """The ``OptimizerConfig`` fields as options, with the dataclass's defaults."""
    p.add_argument("--seed", type=int, default=OptimizerConfig.seed, help="64-bit RNG seed")
    p.add_argument("--restarts", type=int, default=OptimizerConfig.restarts, help="local-search restarts")
    p.add_argument(
        "--tol", type=float, default=OptimizerConfig.tol,
        help="restart-spread bound of converged (spread <= 10 * tol)",
    )
    p.add_argument("--max-iter", type=int, default=OptimizerConfig.max_iter, help="local-search iteration cap")


def _add_output_args(p: argparse.ArgumentParser, formats=("json", "csv", "human")):
    p.add_argument("--format", choices=formats, default=formats[0], help="output format")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_family_args(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=FAMILIES, default=None, help="named state family")
    p.add_argument("--dims", default=None, help="subsystem dimensions, e.g. 2x2x2")
    p.add_argument("--rank", type=int, default=None, help="rank for random_mixed states")
    p.add_argument("-d", "--d", type=int, default=None, dest="d", help="local dimension for werner_qudit")
    p.add_argument("--x", default=None, help="flip expectation for werner_qudit")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="discordkit",
        description="Quantum-correlation measures and verification suites.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="correlation report for one state")
    p_compute.add_argument("--state", default=None, help="path to a state JSON file")
    _add_family_args(p_compute)
    _add_optimizer_args(p_compute)
    _add_output_args(p_compute, formats=("human", "json", "csv"))

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", required=True, help="comma-separated relation names")
    p_verify.add_argument("--samples", type=int, default=20, help="samples per suite")
    _add_family_args(p_verify)
    _add_optimizer_args(p_verify)
    _add_output_args(p_verify, formats=("json", "csv"))

    p_example = sub.add_parser("example", help="reproduce a bundled worked example")
    p_example.add_argument("name", choices=("example2", "example3", "example4"))
    _add_optimizer_args(p_example)
    _add_output_args(p_example, formats=("human", "json"))

    p_hunt = sub.add_parser("hunt", help="sweep Werner states for the discord gap")
    p_hunt.add_argument("-d", "--d", type=int, required=True, dest="d", help="local dimension (>= 2)")
    p_hunt.add_argument("--x", required=True, help="inclusive sweep start:end:count")
    _add_optimizer_args(p_hunt)
    _add_output_args(p_hunt, formats=("json", "csv", "human"))
    return parser


def _check_out(path) -> None:
    """Raise ``ValueError`` when ``--out`` names a directory or a file in a missing directory."""
    if path and os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"--out {path!r} is in a missing directory")


def _parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad --dims value {text!r}; expected e.g. 2x2x2") from None
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"bad --dims value {text!r}; dimensions must be positive")
    return dims


def _parse_range(text: str) -> tuple[float, float, int]:
    try:
        start, end, count = text.split(":")
        start, end, count = float(start), float(end), int(count)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected start:end:count") from None
    if count < 1:
        raise ValueError("range count must be >= 1")
    return start, end, count


def _parse_x(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad --x value {text!r}") from None


def _family_spec_from_args(args) -> StateFamilySpec:
    if args.family is None:
        raise ValueError("either --state or --family is required")
    params = {key: getattr(args, key) for key in ("d", "x", "dims", "rank") if getattr(args, key) is not None}
    for key, parse in (("x", _parse_x), ("dims", _parse_dims)):
        if key in params:
            params[key] = parse(params[key])
    if args.family == "classical_quantum" and "dims" in params:
        k, *dims = params["dims"]
        params = {"k": k, **params, "dims": tuple(dims) or (2,), "rank": params.get("rank", 1)}
    if args.family == "random_mixed" and "dims" in params:
        params.setdefault("rank", math.prod(params["dims"]))
    return StateFamilySpec(args.family, params, args.seed)


def _load_state(args) -> QState:
    if args.state is not None:
        with open(args.state, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidStateError(
                    f"malformed state JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
                ) from None
        return state_from_json(obj)
    sample = _family_spec_from_args(args).sample(0)
    return sample.to_density() if hasattr(sample, "to_density") else sample


def _json_text(obj) -> str:
    """Strict JSON: NaN and infinities are written as null."""
    plain = json.loads(json.dumps(obj), parse_constant=lambda _constant: None)
    return json.dumps(plain, indent=2, allow_nan=False) + "\n"


def _csv_rows(layout: dict, records) -> list:
    """The header of a CSV layout, then one row per record (a tuple of getter arguments)."""
    return [list(layout)] + [[cell(*record) for cell in layout.values()] for record in records]


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _human_table(header, rows) -> str:
    cells = [tuple(_fmt(c) for c in row) for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines) + "\n"


def _write(args, payload, csv_rows, human) -> None:
    """Write one result in ``args.format`` to ``--out`` or stdout.

    ``payload`` is the JSON object, ``csv_rows`` the CSV rows (header first)
    and ``human`` a ``(header, rows, footer)`` table; a subcommand passes None
    for a format it does not offer.  A failed write raises ``OSError``, which
    ``main`` reports.
    """
    if args.format == "json":
        text = _json_text(payload)
    elif args.format == "csv":
        text = _csv_text(csv_rows)
    else:
        header, rows, footer = human
        text = _human_table(header, rows) + footer
    if not args.out:
        sys.stdout.write(text)
        return
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_compute(args, cfg: OptimizerConfig) -> int:
    report = correlation_report(_load_state(args), cfg)
    rows = [(label, getattr(report, name)) for name, label in _REPORT_QUANTITIES.items()]
    footer = f"measurement class: {report.measurement_class}\nnote: {report.estimator_bias}\n"
    human = (("quantity", "value"), rows, footer)
    _write(args, report.to_json(), _csv_rows(_REPORT_CSV, [(report,)]), human)
    return 0


def _cmd_verify(args, cfg: OptimizerConfig) -> int:
    relations = tuple(name.strip() for name in args.suite.split(",") if name.strip())
    unknown = [r for r in relations if r not in RELATIONS]
    if not relations or unknown:
        raise ValueError(f"unknown suite names {unknown}" if unknown else "--suite names no relation")
    report = run_suite(_family_spec_from_args(args), relations, args.samples, cfg)
    if args.out or args.format == "csv":
        _write(args, report.to_json(), _csv_rows(_SUITE_CSV, [(report, row) for row in report.rows]), None)
    else:
        print("note: no JSON report written; --out FILE writes it", file=sys.stderr)
    # The summary goes to stderr when the report itself is on stdout.
    summary_stream = sys.stdout if args.out or args.format != "csv" else sys.stderr
    for name, counts in report.relation_summary().items():
        line = f"{name}: {counts['pass']} pass, {counts['fail']} fail, {counts['skip']} skip"
        if counts["recorded_violations"]:
            line += f" ({counts['recorded_violations']} recorded violations)"
        print(line, file=summary_stream)
    return 0 if report.all_pass else 1


def _example_rows(name: str, cfg: OptimizerConfig):
    """One worked example: its (quantity, reference, computed) rows and its diagnostics."""
    if name == "example4":
        report = correlation_report(werner_2qubit_example4(), cfg)
        s_ab = 0.5 * math.log2(6.0) + 0.5
        return [
            ("S(AB)", s_ab, report.s_ab),
            ("I(A:B)", 2.0 - s_ab, report.mutual_information),
            ("D_A", 0.126, report.d_a),
            ("J_A", 0.082, report.j_a),
        ], {"diagnostics": report.diagnostics}
    # example2: a seeded random pure state; D_A = D_B = S(B) for pure states.
    if name == "example2":
        report = correlation_report(haar_random_pure((2, 2), cfg.seed).to_density(), cfg)
        return [
            ("S(B)", report.s_b, report.s_b),
            ("D_A", report.s_b, report.d_a),
            ("D_B", report.s_b, report.d_b),
            ("discord distance", 0.0, report.discord_distance),
        ], {"diagnostics": report.diagnostics}
    state = example3_state()
    opt, (_j, d_a, s_a, s_b, s_ab) = _measured_run(state, 0, cfg)
    ef_bc = eof_2qubit(partial_trace(purify(state).to_density(), (1, 2))).value
    return [
        ("S(A)", 2.0, s_a),
        ("S(B)", 1.0, s_b),
        ("S(AB)", 1.0, s_ab),
        ("purity", 0.5, purity(state)),
        ("E_F(BC)", 0.0, ef_bc),
        ("D_A", 1.0, d_a),
        ("S(A)-S(AB)-S(B)", 0.0, s_a - s_ab - s_b),
    ], {"d_a": opt.diagnostics()}


def _cmd_example(args, cfg: OptimizerConfig) -> int:
    rows, extras = _example_rows(args.name, cfg)
    header = ("quantity", "reference", "computed", "delta")
    table = [(q, ref, got, abs(got - ref)) for q, ref, got in rows]
    payload = {"example": args.name, "rows": [dict(zip(header, row)) for row in table], **extras}
    _write(args, payload, None, (header, table, ""))
    return 0


def _cmd_hunt(args, cfg: OptimizerConfig) -> int:
    start, end, count = _parse_range(args.x)
    if args.d < 2:
        raise ValueError("hunt requires d >= 2")
    # Both endpoints inside (-1, 1), so that the grid is too; a NaN or an
    # infinity fails here, before np.linspace can warn on it.
    if not (-1.0 < start < 1.0 and -1.0 < end < 1.0):
        raise ValueError("hunt requires x values inside (-1, 1)")
    grid = np.linspace(start, end, count)
    rows = []
    for x in grid:
        print(f"hunt: d={args.d} x={x:.6g} ...", file=sys.stderr, flush=True)
        state = werner_qudit(args.d, float(x))
        opt, (j_classical, _d, s_a, s_other, s_env) = _measured_run(state, 0, cfg)
        running = np.minimum.accumulate(np.array(opt.restart_values))
        trajectory = [float(s_a - s_other + v) for v in running]
        d_upper = s_a - j_classical
        rows.append(
            {
                "x": float(x),
                "s_measured": s_a,
                "s_env": s_env,
                "j_classical": j_classical,
                "d_upper": d_upper,
                "gap": d_upper - s_env,
                "trajectory": trajectory,
                "converged": opt.converged,
                "spread": opt.spread,
                "route": CERTIFIED if opt.certified else "searched",
            }
        )
    payload = {"mode": "hunt", "d": args.d, "label": HUNT_LABEL, "rows": rows}
    table = [(r["x"], r["s_env"], r["d_upper"], r["gap"]) for r in rows]
    human = (("x", "S(env)", "D_A upper", "gap"), table, f"label: {HUNT_LABEL}\n")
    _write(args, payload, _csv_rows(_HUNT_CSV, [(r,) for r in rows]), human)
    return 0


def main(argv=None) -> int:
    """Run one subcommand; every error it raises is reported here, as one ``error:`` line.

    ``DiscordBoundError`` exits 1; ``ValueError`` (``InvalidStateError``
    included) and ``OSError`` are usage or input errors and exit 2.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    commands = {"compute": _cmd_compute, "verify": _cmd_verify, "example": _cmd_example, "hunt": _cmd_hunt}
    try:
        cfg = OptimizerConfig(restarts=args.restarts, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
        _check_out(args.out)
        return commands[args.command](args, cfg)
    except (DiscordBoundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DiscordBoundError) else 2


if __name__ == "__main__":
    sys.exit(main())
