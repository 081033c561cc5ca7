"""Invariants of the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements():
    # `python -O` strips assert statements; required invariants raise instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert list(SRC.rglob("*.py")) and found == []
