"""Properties of the package source itself."""
import ast
from pathlib import Path

import orbiforge

PACKAGE = Path(orbiforge.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # silently disappear; checks raise explicit errors instead
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, "package source not found"
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
