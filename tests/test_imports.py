"""No module of the package imports a name it never uses, or scipy.

``__init__.py`` re-exports its imports and ``__future__`` imports are
directives, so both are exempt from the unused-import check.  The package
depends on numpy alone.
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
