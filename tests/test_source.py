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


def test_no_floating_point():
    # the program is exact: no float or complex constant, conversion or mantissa split
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            call = node.func if isinstance(node, ast.Call) else None
            if (
                isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(call, ast.Name) and call.id in ("float", "complex")
                or isinstance(node, ast.Attribute) and node.attr in ("frexp", "ldexp")
                or isinstance(node, ast.alias) and node.name in ("frexp", "ldexp")
            ):
                found.append(f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')}")
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
    # the oracle runs on integers; mpmath is only a test dependency
    assert not _loaded_after_import("mpmath", "weilrank, weilrank.cli")


def test_import_leaves_numpy_unloaded():
    # numpy is only a test dependency: importing the package and running the
    # oracle end to end, root isolation and lattice reduction, never load it
    imports = "weilrank.cli, weilrank.search; from weilrank import exactcore, relfinder, weil"
    non_neat = "weil.validate(exactcore.IntPoly([729, -324, 72, -18, 8, -4, 1]), 9)"
    expr = f"relfinder.oracle_rank({non_neat}).rank, 'numpy' in sys.modules"
    assert _after_import(expr, imports) == "2 False"


def test_import_leaves_cyclotomic_tables_empty():
    # the candidate orders and roots of unity are built on first use, so
    # importing the package does not pay for them
    cached = "t._candidate_orders, t._root_of_unity, t.cyclotomic_polynomial"
    tables = f"[f.cache_info().currsize for f in ({cached})]"
    imports = "weilrank, weilrank.cli, weilrank.exactcore.transforms as t"
    assert _after_import(tables, imports) == "[0, 0, 0]"
