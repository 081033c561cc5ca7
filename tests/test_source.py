"""Invariants of the source tree itself."""

import ast
import os
import subprocess
import sys
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


def _after_import(expr: str, imports: str) -> str:
    """What a fresh interpreter prints for expr after `import sys, <imports>`."""
    code = f"import sys, {imports}; print({expr})"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def _loaded_after_import(module: str, imports: str) -> bool:
    return _after_import(f"{module!r} in sys.modules", imports) == "True"


def test_import_leaves_mpmath_unloaded():
    # the oracle runs on integers and numpy; mpmath is only a test dependency
    assert not _loaded_after_import("mpmath", "weilrank, weilrank.cli")


def test_import_leaves_numpy_unloaded():
    # only the oracle's root starts and candidate scan use numpy, imported there
    assert not _loaded_after_import("numpy", "weilrank, weilrank.cli, weilrank.search")


def test_import_leaves_cyclotomic_tables_empty():
    # the candidate orders and roots of unity are built on first use, so
    # importing the package does not pay for them
    tables = "[len(t._CANDIDATES), len(t._ROOTS_OF_UNITY), len(t._CYCLO_CACHE)]"
    imports = "weilrank, weilrank.cli, weilrank.exactcore.transforms as t"
    assert _after_import(tables, imports) == "[0, 0, 0]"


def test_import_leaves_candidate_grids_empty():
    # the oracle's exponent grids are built on its first scan
    imports = "weilrank, weilrank.cli, weilrank.relfinder as r"
    assert _after_import("len(r._GRIDS)", imports) == "0"
