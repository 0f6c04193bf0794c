"""No module of the package imports a name it never uses, or scipy; one module starts searches.

``__init__.py`` re-exports its imports and ``__future__`` imports are
directives, so both are exempt from the unused-import check.  The package
depends on numpy alone.  Only ``_descent`` calls ``descend``, and only
``_descent.restart_stack`` and ``verify.check_kw_pointwise`` read the one
cache of seeded draws, ``seeded_isometries``: every search starts through
``_descent.search``, which only ``_descent.solve`` and the public
``minimize_over_measurements`` call, and every certificate through
``_descent.certify``, which only ``solve`` calls.  Only the maps that
derive a state from a valid one skip validation (``qstate._derived_state``);
every state built from outside data goes through ``QState(...)``.  Only
``correlations._measured_run``, ``correlations.correlation_report`` and
``verify._StateAnalysis.j_and_d`` call ``correlations._j_and_d``, and the
cli computes no entropy of its own.  ``_descent.summary`` is the one reader
of a finished run, and only ``correlations.OptimizedValue.certified``
compares stop reasons with ``(CERTIFIED,)``.  ``config._integer`` is the one
reader of integer arguments (``qstate._subsystems`` reads subsystem indices
through it): ``int()`` converts only counts, and the cli's text.  Only
``states._FAMILIES`` decides a family's parameters and sampler: no module
compares a family name, but for the cli's two shorthands.  Only ``qstate``
names NumPy's ``eigh`` or ``eigvalsh``: it owns every decomposition,
entropy and reduction of a state.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "discordkit"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set:
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            modules.add(node.module)
    return modules


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    modules = imported_modules(path.read_text(encoding="utf-8"))
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_scipy_import_detection():
    source = "import numpy as np\nimport scipy.linalg\nfrom scipy.optimize import minimize\nfrom . import qstate\n"
    assert imported_modules(source) == {"numpy", "scipy.linalg", "scipy.optimize"}


def test_unused_import_detection():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport numpy as np\nfrom typing import Callable, Iterable\n"
        "def f(x: Callable):\n    return np.zeros(x)\n"
    )
    assert unused_imports(source) == ["Iterable", "json"]


def called_names(source: str) -> set:
    """Names of the functions called in ``source``, as ``f(...)`` or ``module.f(...)``."""
    calls = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return calls


def test_only_descent_starts_a_search():
    callers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if "descend" in called_names(path.read_text(encoding="utf-8"))
    }
    assert callers == {"_descent.py"}
    assert callers_of({"seeded_isometries"}) == {"_descent.restart_stack", "verify.check_kw_pointwise"}


def callers_of(names: set) -> set:
    """The package's functions, as ``module.function``, whose bodies call one of ``names``."""
    return {
        f"{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and called_names(ast.unparse(node)) & names
    }


def test_only_solve_runs_searches_and_certificates():
    assert callers_of({"search"}) == {"_descent.solve", "correlations.minimize_over_measurements"}
    assert callers_of({"certify"}) == {"_descent.solve"}


def test_only_the_derived_state_maps_skip_validation():
    assert callers_of({"_derived_state"}) == {
        "qstate.partial_trace",
        "qstate.permute_subsystems",
        "qstate.to_density",
        "measurement.apply_measurement",
        "measurement.dephase",
        "correlations.re_discord_detailed",
    }
    for name in ("states.py", "cli.py"):
        assert "_derived_state" not in called_names((PACKAGE / name).read_text(encoding="utf-8"))
    assert "QState" in called_names((PACKAGE / "states.py").read_text(encoding="utf-8"))
    assert {"qstate.state_from_json", "qstate.tensor"} <= callers_of({"QState"})
    assert "cli._load_state" in callers_of({"state_from_json"})


def test_one_function_turns_a_minimum_into_j_and_d():
    # _j_and_d reads its own entropies; the cli reads them from _measured_run.
    assert callers_of({"_j_and_d"}) == {
        "correlations._measured_run",
        "correlations.correlation_report",
        "verify.j_and_d",
    }
    assert "von_neumann_entropy" not in called_names((PACKAGE / "cli.py").read_text(encoding="utf-8"))


def test_verify_imports_no_givens_name():
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"unitary_from_params", "n_measurement_params", "projective_from_params"}


def test_called_name_detection():
    source = "from . import _descent\nx = descend(f, x0)\ny = _descent.random_starts(2, 2, 0, 3)\nz = g()(1)\n"
    assert called_names(source) == {"descend", "random_starts", "g", None}


def functions_where(source: str, module: str, holds) -> set:
    """The functions of ``source``, as ``module.qualname`` (``module`` at top level), holding a node where ``holds``."""
    found = set()

    def visit(node, names: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, names + (child.name,))
                continue
            if holds(child):
                found.add(".".join((module,) + names))
            visit(child, names)

    visit(ast.parse(source), ())
    return found


def package_functions_where(holds) -> set:
    return set().union(*(functions_where(path.read_text(encoding="utf-8"), path.stem, holds)
                         for path in PACKAGE.glob("*.py")))


def compares_with_certified(node) -> bool:
    """A comparison of a value with ``(CERTIFIED,)``."""

    def is_certified(node) -> bool:
        return (isinstance(node, ast.Tuple) and len(node.elts) == 1
                and ast.unparse(node.elts[0]) in ("CERTIFIED", "'certified'", "_descent.CERTIFIED"))

    return isinstance(node, ast.Compare) and any(map(is_certified, [node.left, *node.comparators]))


def test_one_owner_reads_a_finished_run_and_its_certificate():
    from discordkit import _descent

    assert not hasattr(_descent, "counts")
    assert package_functions_where(compares_with_certified) == {"correlations.OptimizedValue.certified"}


def converts_a_non_count(node) -> bool:
    """An ``int(...)`` of anything but a count: an ``np.prod``, an ``np.count_nonzero`` or a ``.sum()``."""
    if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "int"):
        return False
    arg = node.args[0] if node.args else None
    return not (isinstance(arg, ast.Call) and (ast.unparse(arg.func) in ("np.prod", "np.count_nonzero")
                                               or getattr(arg.func, "attr", None) == "sum"))


def uses_operator_index(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "operator" and "index" in {alias.name for alias in node.names}
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "operator.index"


def test_one_reader_reads_every_integer_argument():
    # config._integer reads every integer argument, and qstate._subsystems
    # every subsystem index through it; int() only converts counts, or
    # parses the cli's own text.
    assert package_functions_where(converts_a_non_count) <= {"cli._parse_dims", "cli._parse_range"}
    assert package_functions_where(uses_operator_index) == {"config._integer"}


def names_an_eigensolver(node) -> bool:
    """A reference to NumPy's ``eigh`` or ``eigvalsh``, called or not."""
    return (isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")) or (
        isinstance(node, ast.Name) and node.id in ("eigh", "eigvalsh"))


def test_qstate_owns_every_eigensolve():
    # Every decomposition, entropy and reduction of a state is qstate's:
    # the other modules read the kept pair or call _kept_eigh.
    assert package_functions_where(names_an_eigensolver) == {"qstate._kept_eigh", "qstate._gram_spectrum"}


def test_eigensolver_detection():
    source = (
        "import numpy as np\nfrom numpy.linalg import eigvalsh\n"
        "def f(a):\n    return np.linalg.eigh(a)\n"
        "def g(a):\n    return eigvalsh(a)[0]\n"
        "def h(a):\n    solve = np.linalg.eigvalsh\n    return solve(a)\n"
        "def k(a):\n    return _kept_eigh(a), np.linalg.eig(a), np.linalg.svd(a), a.eigh_count\n"
        "class C:\n    def m(self, a):\n        return numpy.linalg.eigh(a)[1]\n"
    )
    assert functions_where(source, "m", names_an_eigensolver) == {"m.f", "m.g", "m.h", "m.C.m"}


def test_integer_read_detection():
    source = (
        "import operator\nfrom operator import index\n"
        "def f(d, x):\n    return int(np.prod(d)) + int(x.sum()) + int(np.count_nonzero(x)) + operator.attrgetter(x)\n"
        "def g(k):\n    return int(k)\n"
        "class C:\n    def h(self, k):\n        return operator.index(k)\n"
    )
    assert functions_where(source, "m", converts_a_non_count) == {"m.g"}
    assert functions_where(source, "m", uses_operator_index) == {"m", "m.C.h"}


def test_certified_comparison_detection():
    source = (
        "class R:\n    def ok(self):\n        return self.stop_reasons == (CERTIFIED,)\n"
        "def f(opt):\n    return 'x' if ('certified',) != opt.stop_reasons else 'y'\n"
        "def g(opt):\n    return opt.stop_reasons == (CERTIFIED, CERTIFIED) or CERTIFIED in opt.stop_reasons\n"
    )
    assert functions_where(source, "m", compares_with_certified) == {"m.R.ok", "m.f"}


def compares_a_family_name(node) -> bool:
    """A comparison with a family name, or with a tuple, list or set holding one."""
    from discordkit.states import FAMILIES

    def names_a_family(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(names_a_family, node.elts))
        return isinstance(node, ast.Constant) and node.value in FAMILIES

    return isinstance(node, ast.Compare) and any(map(names_a_family, [node.left, *node.comparators]))


def test_one_table_owns_every_state_family():
    # _FAMILIES maps each family to its parameters and sampler, so neither
    # StateFamilySpec nor the cli branches on a family; the cli keeps its
    # classical_quantum and random_mixed shorthands.
    assert package_functions_where(compares_a_family_name) == {"cli._family_spec_from_args"}
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    [spec_from_args] = [node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "_family_spec_from_args"]
    assert sorted(ast.unparse(node) for node in ast.walk(spec_from_args) if compares_a_family_name(node)) == [
        "args.family == 'classical_quantum'", "args.family == 'random_mixed'"]


def test_family_comparison_detection():
    source = (
        "def f(family):\n    return family == 'haar_pure'\n"
        "def g(family):\n    return family in ('x', 'werner_2qubit')\n"
        "def h(name):\n    return name == 'example2' or {'haar_pure': 1}[name]\n"
        "class C:\n    def k(self):\n        return 'random_mixed' != self.family\n"
    )
    assert functions_where(source, "m", compares_a_family_name) == {"m.f", "m.g", "m.C.k"}
