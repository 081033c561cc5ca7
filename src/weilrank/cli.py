"""Command-line front-end: analysis, classification, enumeration, search.

Conventions: polynomial coefficients are ascending (constant term first)
both on the command line and in JSON; every number in JSON is a decimal
string so arbitrary precision survives any consumer.  All output data goes
to stdout, progress notes to stderr.  Exit codes: 0 success, 1 usage
error, 2 invalid Weil polynomial, 3 classifier/oracle disagreement under the
opt-in `classify --oracle-check`, whose `oracle` key appears exactly when it
ran.  The `simple` key means one distinct irreducible factor: E^3 is simple.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import (
    ClassificationReport,
    classify,
    classify_auto,
    fourfold_diagnostic,
    sufficiency_degree,
)
from .errors import OracleDisagreement, WeilrankError
from .exactcore import IntPoly
from .newton import NEWTON_LABELS, classify_newton, newton_polygon
from .relfinder import DEFAULT_EXPONENT_BOUND, oracle_rank
from .search import (
    SearchSpec,
    construct_totally_real_cubic,
    enumerate_weil,
    find_non_neat_sextics,
)
from .weil import base_change, validate

SCHEMA = "weilrank/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_DISAGREEMENT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_poly(text: str) -> IntPoly:
    try:
        return IntPoly([int(c.strip()) for c in text.split(",")])
    except ValueError:
        raise SystemExit(_usage_error("polynomial coefficients must be integers"))


def positive_int(text: str) -> int:
    """An integer of at least 1; argparse reports the ValueError of any other value."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def nonnegative_int(text: str) -> int:
    """An integer of at least 0; argparse reports the ValueError of any other value."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def index_bound(text: str) -> tuple[int, int]:
    """INDEX=BOUND, both integers."""
    index, _, bound = text.partition("=")
    return int(index), int(bound)


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _poly_json(poly: IntPoly):
    return [str(c) for c in poly.coeffs]


def _newton_json(polygon):
    return [[str(s), l] for s, l in polygon.segments]


def _witness_json(cf):
    if cf is None:
        return None
    return {
        "m": str(cf.m),
        "g": [[str(a), str(b)] for a, b in cf.coefficients],
    }


def _report_json(report: ClassificationReport) -> dict:
    out = {
        "schema": SCHEMA,
        "q": str(report.q),
        "coeffs": _poly_json(report.poly),
        "g": report.g,
        "neat": report.neat,
        "rank": report.rank,
        "gamma_rank": report.gamma_rank,
        "newton": report.newton.primary,
        "newton_labels": sorted(report.newton.labels),
        "polygon": _newton_json(report.polygon),
        "simple": report.simple,
        "conditions": {
            "i": report.condition_i,
            "ii": report.condition_ii,
            "iii": report.condition_iii,
        },
        "witness": _witness_json(report.witness),
        "components": [
            {
                "pmin": _poly_json(c.pmin),
                "e": c.e,
                "pairs": c.d,
                "newton": c.newton_primary,
                "supersingular": c.supersingular,
            }
            for c in report.components
        ],
        "rank_source": "theorem",  # kept in weilrank/1: every rank is a theorem
        "sufficiency_degree": report.sufficiency_degree,
        "notes": [],
    }
    if report.extension_from is not None:
        q0, n = report.extension_from
        out["extension"] = {"from_q": str(q0), "degree": n}
    if report.oracle is not None:
        out["oracle"] = {
            "rank": report.oracle.rank,
            "confidence": report.oracle.confidence,
            "basis": [list(v) for v in report.oracle.lattice.basis],
            "exponent_bound": report.oracle.lattice.exponent_bound,
            "agrees": report.oracle.rank == report.rank,
        }
    return out


def _invalid_record(poly: IntPoly, q: int, exc: WeilrankError) -> dict:
    return {
        "schema": SCHEMA,
        "valid": False,
        "q": str(q),
        "coeffs": _poly_json(poly),
        "error": type(exc).__name__,
        "detail": str(exc),
    }


def _analyze_record(poly: IntPoly, q: int) -> dict:
    w = validate(poly, q)
    comps = w.components
    polygon = newton_polygon(w)
    ntype = classify_newton(polygon, w.g)
    return {
        "schema": SCHEMA,
        "valid": True,
        "q": str(q),
        "coeffs": _poly_json(poly),
        "g": w.g,
        "p": str(w.p),
        "v": w.v,
        "simple": len(comps) == 1,
        "components": [
            {
                "pmin": _poly_json(c.pmin),
                "e": c.e,
                "pairs": c.d,
                "sqrt_root": c.sqrt_root,
            }
            for c in comps
        ],
        "end_rank": sum(c.r_count * c.e * c.e for c in comps),  # e^2 per distinct root
        "newton": ntype.primary,
        "newton_labels": sorted(ntype.labels),
        "polygon": _newton_json(polygon),
        "sufficiency_degree": sufficiency_degree(w),
    }


def _print_human_analysis(rec: dict):
    print(f"Weil polynomial over F_{rec['q']}: valid (g = {rec['g']})")
    print(f"  p = {rec['p']}, v = {rec['v']}")
    print(f"  simple: {rec['simple']}")
    for c in rec["components"]:
        print(
            f"  component {','.join(c['pmin'])} e={c['e']} pairs={c['pairs']}"
            f" sqrt_root={c['sqrt_root']}"
        )
    print(f"  endomorphism rank: {rec['end_rank']}")
    print(f"  newton: {rec['newton']} {rec['polygon']}")
    print(f"  sufficiency degree: {rec['sufficiency_degree']}")


def _cmd_analyze(args) -> int:
    if args.batch:
        return _run_batch(args.batch, _analyze_record)
    poly = _parse_poly(args.poly)
    try:
        rec = _analyze_record(poly, args.q)
    except WeilrankError as exc:
        if not args.json:
            raise
        print(json.dumps(_invalid_record(poly, args.q, exc)))
        return EXIT_INVALID
    if args.json:
        print(json.dumps(rec))
    else:
        _print_human_analysis(rec)
    return EXIT_OK


def _fourfold_json(w, diag) -> dict:
    return {
        "schema": SCHEMA,
        "q": str(w.q),
        "coeffs": _poly_json(w.poly),
        "decomposition": [[_poly_json(f), e] for f, e in diag.decomposition],
        "newton": diag.newton_primary,
        "oracle_rank": diag.oracle.rank,
        "confidence": diag.oracle.confidence,
        "rank_is_three": diag.rank_is_three,
        "quadratic_subfield_in_component": diag.quadratic_subfield_in_component,
        "non_neat_threefold_component": diag.non_neat_threefold_component,
    }


def _cmd_classify(args) -> int:
    def record(poly, q):
        w = validate(poly, q)
        if args.fourfold_diagnostic:
            return _fourfold_json(w, fourfold_diagnostic(w))
        run = classify_auto if args.auto_extend else classify
        return _report_json(run(w, force_oracle=args.oracle_check))

    if args.batch:
        return _run_batch(args.batch, record)
    print(json.dumps(record(_parse_poly(args.poly), args.q)))
    return EXIT_OK


def _json_int(x) -> int:
    """An integer given as a JSON integer or a decimal string."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"not an integer: {x!r}")
    return int(x)


def _batch_input(line: str):
    """(poly, q) of one batch line; ValueError when the line is malformed."""
    rec = json.loads(line)
    if not isinstance(rec, dict) or not isinstance(rec.get("coeffs"), list):
        raise ValueError("expected an object with a 'coeffs' list and 'q'")
    return IntPoly([_json_int(c) for c in rec["coeffs"]]), _json_int(rec.get("q"))


def _run_batch(path: str, fn) -> int:
    """Process JSONL records one per line; output line i matches input line i.

    A malformed line gets an error record on its own output line and exit
    code 1; the lines after it are still answered.
    """
    try:
        stream = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    except OSError as exc:
        return _usage_error(f"cannot read {path}: {exc.strerror}")
    worst = EXIT_OK
    try:
        for line in stream:
            line = line.strip()
            if not line:
                print("{}")
                continue
            try:
                poly, q = _batch_input(line)
            except ValueError as exc:
                print(json.dumps({"schema": SCHEMA, "error": "MalformedInput", "detail": str(exc)}))
                worst = max(worst, EXIT_USAGE)
                continue
            try:
                out = fn(poly, q)
            except OracleDisagreement as exc:
                out = {"schema": SCHEMA, "error": "OracleDisagreement", "detail": str(exc)}
                worst = max(worst, EXIT_DISAGREEMENT)
            except WeilrankError as exc:
                out = _invalid_record(poly, q, exc)
                worst = max(worst, EXIT_INVALID)
            print(json.dumps(out))
    finally:
        if stream is not sys.stdin:
            stream.close()
    return worst


def _cmd_enumerate(args) -> int:
    for index, _ in args.bound_override or []:
        if not args.g <= index < 2 * args.g:
            free = f"t^{args.g}..t^{2 * args.g - 1}"
            msg = f"invalid --bound-override index {index}: the free coefficients are {free}"
            raise SystemExit(_usage_error(msg))
    spec = SearchSpec(
        g=args.g,
        q=args.q,
        bounds=dict(args.bound_override or []),
        irreducible_only=args.irreducible,
        newton_label=args.newton,
        non_neat_only=args.non_neat,
        limit=args.limit,
    )
    count = 0
    for w in enumerate_weil(spec):
        print(json.dumps({"schema": SCHEMA, "coeffs": _poly_json(w.poly), "q": str(w.q)}))
        count += 1
    print(f"enumerated {count} polynomials", file=sys.stderr)
    return EXIT_OK


def _cmd_search_nonneat(args) -> int:
    count = 0
    for w, cf in find_non_neat_sextics(args.p, args.q, args.m, limit=args.limit):
        print(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "coeffs": _poly_json(w.poly),
                    "q": str(w.q),
                    "witness": _witness_json(cf),
                }
            )
        )
        count += 1
    print(f"found {count} non-neat sextics", file=sys.stderr)
    return EXIT_OK


def _cmd_cubic_field(args) -> int:
    try:
        rep = construct_totally_real_cubic(args.p, args.l)
    except WeilrankError as exc:
        print(f"rejected: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(
        json.dumps(
            {
                "schema": SCHEMA,
                "p": str(args.p),
                "l": str(args.l),
                "cleared_coeffs": _poly_json(rep.cleared),
                "eisenstein_at_l": rep.eisenstein_at_l,
                "real_root_count": rep.real_root_count,
                "mod_p_shape": rep.mod_p_shape,
                "all_checks_pass": rep.all_checks_pass,
            }
        )
    )
    return EXIT_OK if rep.all_checks_pass else EXIT_INVALID


def _cmd_base_change(args) -> int:
    wn = base_change(validate(_parse_poly(args.poly), args.q), args.n)
    print(json.dumps({"schema": SCHEMA, "coeffs": _poly_json(wn.poly), "q": str(wn.q)}))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    poly = _parse_poly(args.poly)
    result = oracle_rank(validate(poly, args.q), exponent_bound=args.bound)
    print(
        json.dumps(
            {
                "schema": SCHEMA,
                "q": str(args.q),
                "coeffs": _poly_json(poly),
                "rank": result.rank,
                "confidence": result.confidence,
                "representatives": list(result.lattice.representatives),
                "basis": [list(v) for v in result.lattice.basis],
                "exponent_bound": result.lattice.exponent_bound,
            }
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weilrank",
        description="Exact analysis of Weil q-polynomials: validation, Newton "
        "polygons, neatness and multiplicative rank.  Coefficients are always "
        "ascending: constant term first.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="validate and report structure")
    p_an.add_argument("--q", type=int)
    p_an.add_argument("--poly", type=str)
    p_an.add_argument("--json", action="store_true")
    p_an.add_argument("--batch", type=str, help="JSONL file or '-' for stdin")
    p_an.set_defaults(func=_cmd_analyze)

    p_cl = sub.add_parser("classify", help="neatness / rank report (JSON)")
    p_cl.add_argument("--q", type=int)
    p_cl.add_argument("--poly", type=str)
    p_cl.add_argument("--auto-extend", action="store_true", dest="auto_extend")
    p_cl.add_argument("--oracle-check", action="store_true", dest="oracle_check")
    p_cl.add_argument("--fourfold-diagnostic", action="store_true")
    p_cl.add_argument("--batch", type=str)
    p_cl.set_defaults(func=_cmd_classify)

    p_en = sub.add_parser("enumerate", help="stream valid Weil polynomials (JSONL)")
    p_en.add_argument("--g", type=int, required=True)
    p_en.add_argument("--q", type=int, required=True)
    p_en.add_argument("--irreducible", action="store_true")
    p_en.add_argument("--newton", choices=NEWTON_LABELS, default=None)
    p_en.add_argument("--non-neat", action="store_true", dest="non_neat")
    p_en.add_argument("--limit", type=nonnegative_int, default=None)
    p_en.add_argument(
        "--bound-override",
        type=index_bound,
        action="append",
        dest="bound_override",
        metavar="INDEX=BOUND",
    )
    p_en.set_defaults(func=_cmd_enumerate)

    p_nn = sub.add_parser("search-nonneat", help="find non-neat sextics (JSONL)")
    p_nn.add_argument("--p", type=int, required=True)
    p_nn.add_argument("--q", type=int, required=True)
    p_nn.add_argument("--m", type=int, required=True)
    p_nn.add_argument("--limit", type=nonnegative_int, default=None)
    p_nn.set_defaults(func=_cmd_search_nonneat)

    p_cf = sub.add_parser("cubic-field", help="totally real cubic constructor")
    p_cf.add_argument("--p", type=int, required=True)
    p_cf.add_argument("--l", type=int, required=True)
    p_cf.set_defaults(func=_cmd_cubic_field)

    p_bc = sub.add_parser("base-change", help="extend the base field")
    p_bc.add_argument("--n", type=positive_int, required=True)
    p_bc.add_argument("--q", type=int, required=True)
    p_bc.add_argument("--poly", type=str, required=True)
    p_bc.set_defaults(func=_cmd_base_change)

    p_or = sub.add_parser("oracle", help="certified relation-lattice rank")
    p_or.add_argument("--q", type=int, required=True)
    p_or.add_argument("--poly", type=str, required=True)
    p_or.add_argument("--bound", type=positive_int, default=DEFAULT_EXPONENT_BOUND,
                      help="sup-norm box of the relation search: the basis spans every"
                      " relation v with all |v_j| <= BOUND")
    p_or.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("analyze", "classify") and not args.batch:
        if args.q is None or args.poly is None:
            return _usage_error(f"{args.command} requires --q and --poly")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe early; point stdout at the null device
        # so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except OracleDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except WeilrankError as exc:
        print(f"invalid: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
