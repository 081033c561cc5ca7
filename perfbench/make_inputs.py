"""Regenerate the benchmark's input lists in perfbench/inputs/.

    python3 perfbench/make_inputs.py [census] [certify] [enumerate]

With no argument it writes all three files.  `census` takes about two
minutes and `certify` about three (the non-neat sextic search alone takes
about a minute); `enumerate` is instant.

Each file holds `fixed` entries, run in every round, and a `pool` that a
round samples from by seed (census only; certify runs its whole corpus).
Pool entries carry `cost_ms`, the time of one operation measured here; a
round draws one entry from each of `sample` equal strata of the pool sorted
by that cost, so seeds change which polynomials run but hardly how much
work a round is.  Coefficients are ascending.  Entries with `fault` fail
for the reason given.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from weilrank import IntPoly, base_change, validate  # noqa: E402
from weilrank.classify import classify_auto, sufficiency_degree  # noqa: E402
from weilrank.errors import PreconditionViolation  # noqa: E402
from weilrank.relfinder import oracle_rank  # noqa: E402
from weilrank.search import find_non_neat_sextics  # noqa: E402

INPUTS = HERE / "inputs"

# ROADMAP item 1: g = 3, q = 2 polynomials whose eigenvalue group has
# torsion that `sufficiency_degree` misses.
ITEM1 = [
    [8, -8, 2, 0, 1, -2, 1],
    [8, 8, 2, 0, 1, 2, 1],
    [8, -8, 6, -6, 3, -2, 1],
    [8, 8, 6, 6, 3, 2, 1],
    [8, 0, -2, -2, -1, 0, 1],
    [8, 0, -2, 2, -1, 0, 1],
]
ITEM1_FAULT = (
    "classify_auto reports rank 3 with sufficiency degree 1; Gamma has torsion "
    "that sufficiency_degree misses, and the rank is 2 (ROADMAP item 1)"
)
# (t^4 - 4t^3 + 35t^2 - 100t + 625)(t^2 - 8t + 25) over F_25
F25_PRODUCT = (IntPoly([625, -100, 35, -4, 1]) * IntPoly([25, -8, 1])).coeffs
F25_FAULT = (
    "classify_auto raises PreconditionViolation: Gamma has 2-torsion over F_25 "
    "that sufficiency_degree misses (ROADMAP item 1)"
)
# Three ordinary elliptic curves over F_5 with CM by Q(sqrt -19), Q(i), Q(sqrt -11)
THREE_CM = (IntPoly([5, -1, 1]) * IntPoly([5, -2, 1]) * IntPoly([5, -3, 1])).coeffs
NON_NEAT_SPECS = [(2, 4, -1), (2, 4, -3), (3, 9, -1)]
ENUMERATE_BOXES = [(3, 3), (3, 4), (2, 8), (2, 9), (2, 11), (2, 13), (2, 16), (2, 25)]


def _cost_ms(fn, coeffs, q) -> float:
    t0 = time.perf_counter()
    fn(validate(IntPoly(coeffs), q))
    return round((time.perf_counter() - t0) * 1e3, 1)


def _entry(name, q, coeffs, **extra):
    return {"name": name, "q": q, "coeffs": [int(c) for c in coeffs], **extra}


def _over_sufficient_field(coeffs, q):
    w = validate(IntPoly(coeffs), q)
    n = sufficiency_degree(w)
    wn = base_change(w, n)
    return wn.q, list(wn.poly.coeffs), n


def make_census():
    g3 = reference.weil_set(3, 2)
    fixed = [_entry(f"g2q3-{i:02d}", 3, c) for i, c in enumerate(reference.weil_set(2, 3))]
    fixed += [_entry(f"item1-{i}", 2, c, fault=ITEM1_FAULT) for i, c in enumerate(ITEM1)]
    fixed.append(_entry("f25-product", 25, F25_PRODUCT, fault=F25_FAULT))
    pool = [
        _entry(f"g3q2-{i:03d}", 2, c, cost_ms=_cost_ms(classify_auto, c, 2))
        for i, c in enumerate(g3)
        if list(c) not in ITEM1
    ]
    return {
        "workload": "census",
        "operation": "validate + classify_auto",
        "fixed": fixed,
        "pool": sorted(pool, key=lambda e: e["cost_ms"]),
        "sample": 12,
        "warmup": _entry("warmup", 2, ITEM1[0]),
    }


def make_certify():
    fixed = []
    for p, q, m in NON_NEAT_SPECS:
        for i, (w, _) in enumerate(find_non_neat_sextics(p, q, m)):
            qn, cn, n = _over_sufficient_field(w.poly.coeffs, q)
            fixed.append(_entry(f"sextic-{p}-{q}{m}-{i:02d}", qn, cn, base=[q, n]))
    for i, c in enumerate(ITEM1):
        w = validate(IntPoly(c), 2)
        for n in (2, 4):
            wn = base_change(w, n)
            try:
                if oracle_rank(wn).rank == reference.reference_rank(c):
                    break
            except PreconditionViolation:  # Gamma still has torsion over F_(2^n)
                continue
        else:
            raise RuntimeError(f"no field among F_4, F_16 certifies {c}")
        fixed.append(_entry(f"item1-{i}", wn.q, wn.poly.coeffs, base=[2, n]))
    w25 = base_change(validate(IntPoly(F25_PRODUCT), 25), 2)
    fixed.append(_entry("f625-product", w25.q, w25.poly.coeffs, base=[25, 2]))
    qn, cn, n = _over_sufficient_field(THREE_CM, 5)
    fixed.append(_entry("three-cm", qn, cn, base=[5, n]))
    for i, c in enumerate(reference.weil_set(3, 2)):
        if list(c) in ITEM1:
            continue
        qn, cn, n = _over_sufficient_field(c, 2)
        fixed.append(_entry(f"g3q2-{i:03d}", qn, cn, base=[2, n]))
    return {
        "workload": "certify",
        "operation": "validate + oracle_rank",
        "fixed": fixed,
        "pool": [],
        "sample": 0,
        "warmup": fixed[0],
    }


def make_enumerate():
    return {
        "workload": "enumerate",
        "operation": "one polynomial yielded by enumerate_weil",
        "boxes": [{"g": g, "q": q} for g, q in ENUMERATE_BOXES],
        "warmup": {"g": 2, "q": 8},
    }


MAKERS = {"census": make_census, "certify": make_certify, "enumerate": make_enumerate}


def dump(data: dict) -> str:
    """JSON with one list entry per line, so that the input files diff well."""
    fields = []
    for key, value in data.items():
        if isinstance(value, list):
            rows = ",\n".join("  " + json.dumps(v) for v in value)
            fields.append(f" {json.dumps(key)}: [\n{rows}\n ]")
        else:
            fields.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def main(argv):
    names = argv or list(MAKERS)
    unknown = [n for n in names if n not in MAKERS]
    if unknown:
        sys.exit(f"unknown input list(s): {', '.join(unknown)}")
    INPUTS.mkdir(exist_ok=True)
    for name in names:
        t0 = time.perf_counter()
        data = MAKERS[name]()
        data["regenerate"] = f"python3 perfbench/make_inputs.py {name}"
        (INPUTS / f"{name}.json").write_text(dump(data))
        print(f"{name}: written in {time.perf_counter() - t0:.0f} s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
