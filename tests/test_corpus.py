"""Pinned command-line outputs: each corpus command, rerun in-process, must write what it wrote when pinned.

``tests/corpus/manifest.json`` lists every command with its exit code, and
the numpy and Python versions that wrote it.  Each command's stdout, stderr
and ``--out`` file are stored beside it as ``<name>.<stream>.<kind>``: a
stream with no file was empty.  JSON and CSV are compared field by field
(``_same``); text, the help texts included, byte for byte.

Rewrite the corpus, after a change that is meant to move an output, with::

    PYTHONPATH=src python tests/test_corpus.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from discordkit import _descent
from discordkit.cli import main

CORPUS = pathlib.Path(__file__).with_name("corpus")
MANIFEST = CORPUS / "manifest.json"
# argparse wraps help text to the terminal width, which COLUMNS sets.
COLUMNS = "80"
OUT = "{out}"  # an argv placeholder for the --out path
FLOAT_TOL = 1e-13
# check_thm3's chain fields reproduce less tightly: the chain dephases in
# its first step's argbasis, which a flat minimum fixes only to about the
# square root of rounding.  One earlier refactor moved them by 2.7e-9.
LOOSE = {"chain_value": 1e-7, "chain_residual": 1e-7}
# A restart cut by the agreement rule stops mid-descent, so its entry of
# ``restart_values`` is an iterate's value, not a minimum's, and rounding
# moves it at first order.  One earlier refactor moved such a value by 8.3e-10.
AGREED_TOL = 1e-8
SUITE = "eq5,koashi_winter,monogamy,eq8,thm1,cor1,lindblad,eq12,thm2,cor2,thm3,kw_pointwise"


def _commands() -> dict:
    """The corpus commands, by name."""
    commands = {}
    for dims, rank in (("2x2", 2), ("2x2", 3), ("2x3", 6), ("6x2", 12)):
        commands[f"compute-random_mixed-{dims}-r{rank}"] = [
            "compute", "--family", "random_mixed", "--dims", dims, "--rank", str(rank), "--format", "json"]
    for dims in ("2x3", "2x1"):
        commands[f"compute-haar_pure-{dims}"] = ["compute", "--family", "haar_pure", "--dims", dims, "--format", "json"]
    commands["compute-classical_quantum-2x2"] = ["compute", "--family", "classical_quantum", "--dims", "2x2",
                                                 "--format", "json"]
    commands["compute-example3"] = ["compute", "--family", "example3", "--format", "csv"]
    commands["compute-werner_qudit-d3"] = ["compute", "--family", "werner_qudit", "--d", "3", "--x", "-0.5",
                                           "--format", "human"]
    for name in ("example2", "example3", "example4"):
        commands[f"example-{name}"] = ["example", name, "--format", "json"]
    commands["hunt-d6"] = ["hunt", "--d", "6", "--x=-0.9:0.9:5", "--format", "json"]
    commands["hunt-d3"] = ["hunt", "--d", "3", "--x=-0.9:0.9:3", "--format", "csv"]
    for name, family in (
        ("random_mixed-2x2-r2", ["random_mixed", "--dims", "2x2", "--rank", "2"]),
        ("random_mixed-2x2-r3", ["random_mixed", "--dims", "2x2", "--rank", "3"]),
        ("random_mixed-2x2x2-r8", ["random_mixed", "--dims", "2x2x2", "--rank", "8"]),
        ("random_mixed-2x3-r2", ["random_mixed", "--dims", "2x3", "--rank", "2"]),
        ("random_mixed-3x2-r6", ["random_mixed", "--dims", "3x2", "--rank", "6"]),
        ("random_mixed-4x2-r3", ["random_mixed", "--dims", "4x2", "--rank", "3"]),
        ("haar_pure-2x2x2", ["haar_pure", "--dims", "2x2x2"]),
        ("haar_pure-2", ["haar_pure", "--dims", "2"]),
        ("werner_qudit-d3", ["werner_qudit", "--d", "3", "--x", "0.3"]),
        ("classical_quantum-2x2-r1", ["classical_quantum", "--dims", "2x2", "--rank", "1"]),
    ):
        commands[f"verify-{name}"] = ["verify", "--suite", SUITE, "--samples", "2", "--family", *family, "--out", OUT]
    commands["help"] = ["--help"]
    for sub in ("compute", "verify", "example", "hunt"):
        commands[f"help-{sub}"] = [sub, "--help"]
    return commands


def _kind(argv: list, stream: str) -> str:
    """How a stream of ``argv`` is compared: "json", "csv" or "txt"."""
    if stream == "stderr" or (stream == "stdout" and OUT in argv) or "--help" in argv:
        return "txt"
    if "--format" in argv:
        return argv[argv.index("--format") + 1].replace("human", "txt")
    return "json"  # verify's default format, the only --out of the corpus without --format


def _run(argv: list) -> dict:
    """Run ``argv`` through ``cli.main`` in this process: its exit code and its nonempty streams' text."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([out if a == OUT else a for a in argv])
        streams = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        if OUT in argv:
            with open(out, encoding="utf-8") as fh:
                streams["out"] = fh.read()
    return {"exit": code, "streams": {k: v for k, v in streams.items() if v}}


def _versions() -> dict:
    """The numpy and Python versions of this run: numpy's rounding and argparse's help layout vary with them."""
    return {"numpy": np.__version__, "python": "{}.{}".format(*sys.version_info[:2])}


def _require_versions(pinned: dict) -> None:
    """Fail, naming both, when this run's numpy or Python is not the one that wrote the corpus."""
    running = _versions()
    if running != pinned:
        def names(v):
            return f"numpy {v['numpy']} and Python {v['python']}"
        pytest.fail(f"the corpus was written with {names(pinned)}, and this run has {names(running)}: "
                    "install the pinned versions, or rewrite the corpus (module docstring)", pytrace=False)


def _same(want, got, path: str = "$", bound: float = FLOAT_TOL) -> list:
    """The paths at which parsed JSON ``got`` differs from ``want``: keys in order, floats within ``bound``.

    A key of ``LOOSE`` takes its own bound, and so does each entry of a
    ``restart_values`` list whose ``stop_reasons`` entry is ``agreed``.
    """
    if type(want) is not type(got) or (isinstance(want, list) and len(want) != len(got)):
        return [f"{path}: {want!r} != {got!r}"]
    if isinstance(want, dict):
        if list(want) != list(got):
            return [f"{path}: keys {list(want)} != {list(got)}"]
        reasons, out = want.get("stop_reasons") or (), []
        for key in want:
            if key == "restart_values" and len(reasons) == len(want[key]) == len(got[key]):
                bounds = [AGREED_TOL if why == "agreed" else FLOAT_TOL for why in reasons]
                out += [e for i, (w, g, b) in enumerate(zip(want[key], got[key], bounds))
                        for e in _same(w, g, f"{path}.{key}[{i}]", b)]
            else:
                out += _same(want[key], got[key], f"{path}.{key}", LOOSE.get(key, FLOAT_TOL))
        return out
    if isinstance(want, list):
        return [e for i, (w, g) in enumerate(zip(want, got)) for e in _same(w, g, f"{path}[{i}]", bound)]
    if isinstance(want, float) and abs(want - got) <= bound:
        return []
    return [] if want == got else [f"{path}: {want!r} != {got!r}"]


def _csv_cells(text: str) -> list:
    """CSV rows with each cell read as JSON would read it (int, float, bool) where it parses, else a string."""
    def cell(text):
        for parse in (int, float):
            try:
                return parse(text)
            except ValueError:
                pass
        return {"True": True, "False": False}.get(text, text)

    return [[cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def _differences(kind: str, want: str, got: str) -> list:
    if kind == "json":
        return _same(json.loads(want), json.loads(got))
    if kind == "csv":
        return _same(_csv_cells(want), _csv_cells(got))
    if want == got:
        return []
    pairs = list(zip(want.splitlines(), got.splitlines())) + [(want, got)]
    line, (w, g) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
    return [f"line {line}: {w!r} != {g!r}"]


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_corpus_lists_every_command(manifest):
    assert [case["name"] for case in manifest["cases"]] == list(_commands())


def test_a_version_mismatch_names_both_versions(manifest, monkeypatch):
    monkeypatch.setattr(np, "__version__", "0.0.1")
    with pytest.raises(pytest.fail.Exception, match=rf"numpy {manifest['versions']['numpy']} .* numpy 0\.0\.1"):
        _require_versions(manifest["versions"])


@pytest.mark.parametrize("name", list(_commands()))
def test_command_writes_its_pinned_output(name, manifest, monkeypatch):
    _require_versions(manifest["versions"])
    monkeypatch.setenv("COLUMNS", COLUMNS)
    case = next(c for c in manifest["cases"] if c["name"] == name)
    result = _run(case["argv"])
    assert result["exit"] == case["exit"]
    for stream in ("stdout", "stderr", "out"):
        kind = _kind(case["argv"], stream)
        path = CORPUS / f"{name}.{stream}.{kind}"
        want = path.read_text(encoding="utf-8") if path.exists() else ""
        got = result["streams"].get(stream, "")
        assert bool(want) == bool(got), f"{stream}: pinned {len(want)} characters, got {len(got)}"
        if want:
            differences = _differences(kind, want, got)
            assert not differences, f"{stream}: {differences[:10]}"


def test_the_corpus_runs_every_search_path(monkeypatch):
    """Over the corpus commands ``_descent.descend`` meets a Cayley, a dense embedded and an L-BFGS stack, and a re-seed.

    So a change to any of the search's paths moves some pinned output.
    """
    monkeypatch.setenv("COLUMNS", COLUMNS)
    seen = set()
    descend, hessians = _descent.descend, _descent._hessians

    def recording_descend(objective, x, *args, **kwargs):
        n, p = np.shape(x)[1:]
        seen.add(("cayley" if n == p else "embedded", _descent.coordinates(n, p) <= _descent.DENSE_MAX))
        return descend(objective, x, *args, **kwargs)

    def recording_hessians(*args):
        seen.add("reseed")
        return hessians(*args)

    monkeypatch.setattr(_descent, "descend", recording_descend)
    monkeypatch.setattr(_descent, "_hessians", recording_hessians)
    for argv in _commands().values():
        _run(argv)
    assert {("cayley", True), ("embedded", True), ("embedded", False), "reseed"} <= seen, seen


def _rewrite() -> None:
    """Run every corpus command and write its outputs and the manifest."""
    os.environ["COLUMNS"] = COLUMNS
    for stale in CORPUS.glob("*.*.*"):
        stale.unlink()
    CORPUS.mkdir(exist_ok=True)
    cases = []
    for name, argv in _commands().items():
        result = _run(argv)
        for stream, text in result["streams"].items():
            (CORPUS / f"{name}.{stream}.{_kind(argv, stream)}").write_text(text, encoding="utf-8")
        cases.append({"name": name, "argv": argv, "exit": result["exit"]})
    MANIFEST.write_text(json.dumps({"versions": _versions(), "cases": cases}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _rewrite()
    sys.exit(0)
