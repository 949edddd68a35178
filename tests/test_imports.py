"""Lint with the standard library: every imported name is used, and no
top-level function or class name is defined twice.

A name counts as used when the module reads it anywhere (a bare name, the
root of an attribute chain, an annotation). The package `__init__` re-exports
its imports and `__future__` imports are directives, so both are exempt from
the import check. A second top-level definition silently replaces the first,
so a test defined twice runs only once.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(list((ROOT / "src" / "tssim").glob("*.py")) + list((ROOT / "tests").glob("*.py")))
CHECKED = [p for p in MODULES if p.name != "__init__.py"]


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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def redefinitions(source: str) -> list:
    seen, twice = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                twice.append((node.lineno, node.name))
            seen.add(node.name)
    return twice


def module_id(path):
    return f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("path", CHECKED, ids=module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_lint_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a.b import c, d\nnp.d = d\n"
    assert unused_imports(source) == [(2, "os"), (4, "c")]


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_no_top_level_name_defined_twice(path):
    assert redefinitions(path.read_text(encoding="utf-8")) == []


def test_lint_sees_a_redefinition():
    source = "def f():\n    pass\nclass C:\n    def f(self):\n        pass\ndef g():\n    pass\nclass f:\n    pass\n"
    assert redefinitions(source) == [(8, "f")]
