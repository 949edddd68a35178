"""Import lint with the standard library: every imported name is used.

A name counts as used when the module reads it anywhere (a bare name, the
root of an attribute chain, an annotation). The package `__init__` re-exports
its imports and `__future__` imports are directives, so both are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKED = sorted(
    [p for p in (ROOT / "src" / "tssim").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


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


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_lint_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a.b import c, d\nnp.d = d\n"
    assert unused_imports(source) == [(2, "os"), (4, "c")]
