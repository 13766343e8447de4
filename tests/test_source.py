"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "formulakit"


def test_no_assert_statements():
    # `python -O` strips `assert`, so an invariant guarded by one silently
    # stops holding there. Running the suite under `-O` cannot catch this:
    # it strips pytest's own asserts too.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in formulakit: {found}"
