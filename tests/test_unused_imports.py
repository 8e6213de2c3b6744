"""No module under ``src/repro`` keeps a top-level import it never uses.

A stdlib-``ast`` stand-in for a linter's F401 check: every name a
module's top-level ``import`` / ``from ... import`` binds must be
referenced somewhere in that module, unless the line carries
``# noqa: F401`` (a deliberate re-export).  Package ``__init__``
modules are skipped: re-exporting is what they are for.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of *source* it never references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in used:
                continue
            if any("noqa: F401" in lines[i - 1]
                   for i in (stmt.lineno, alias.lineno)):
                continue
            unused.append(alias.name)
    return unused


def test_scan_finds_an_unused_import():
    src = ("import json\nimport os\nfrom a import b, c  # noqa: F401\n"
           "from d import (\n    e,\n    f,  # noqa: F401\n)\n"
           "print(os.sep)\n")
    assert unused_imports(src) == ["json", "e"]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []
