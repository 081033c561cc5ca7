"""Golden verdicts: `oracle_rank` on every certify input, `classify_auto` on every census input.

The files in tests/data hold one JSON record per benchmark input, in input order.  A change
that moves any rank, basis, certificate field or verdict field shows up here as one test.
Regenerate them, after checking that the change is meant, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

from weilrank.classify import classify_auto
from weilrank.cli import _report_json
from weilrank.exactcore import IntPoly
from weilrank.relfinder import oracle_rank
from weilrank.weil import validate

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "perfbench" / "inputs"
GOLDEN = {
    "certify": ROOT / "tests" / "data" / "golden_certify.jsonl",
    "census": ROOT / "tests" / "data" / "golden_census.jsonl",
}


def _certify_record(w):
    o = oracle_rank(w)
    lat = o.lattice
    return {
        "rank": o.rank,
        "confidence": o.confidence,
        "representatives": list(lat.representatives),
        "basis": [list(v) for v in lat.basis],
        "exponent_bound": lat.exponent_bound,
        "certificates": [asdict(c) for c in lat.certificates],
    }


def _census_record(w):
    return _report_json(classify_auto(w))


def _records(name):
    data = json.loads((INPUTS / f"{name}.json").read_text())
    verdict = _certify_record if name == "certify" else _census_record
    for entry in data["fixed"] + data["pool"]:
        w = validate(IntPoly(entry["coeffs"]), entry["q"])
        yield {
            "name": entry["name"], "q": entry["q"], "coeffs": entry["coeffs"], "verdict": verdict(w)
        }


def _lines(name):
    return [json.dumps(r, sort_keys=True) for r in _records(name)]


def test_verdicts_equal_golden_files():
    for name, path in GOLDEN.items():
        want = path.read_text().splitlines()
        got = _lines(name)
        assert len(got) == len(want), name
        for line, golden in zip(got, want):
            assert line == golden


if __name__ == "__main__":
    for name, path in GOLDEN.items():
        lines = _lines(name)
        path.write_text("".join(line + "\n" for line in lines))
        print(f"{path}: {len(lines)} records", file=sys.stderr)
