"""The three workloads: their inputs by seed, one timed round, and the checks.

An operation is one Weil polynomial carried through the workload's entry
point.  `census` and `certify` run a fixed list per round: the `fixed`
entries of their input file plus one pool entry drawn by seed from each
cost stratum (certify's pool is empty), in an order shuffled by seed.
`enumerate` streams `enumerate_weil` over fixed boxes, in an order
shuffled by seed; there an operation is one yielded polynomial.

The program is called through module attributes (`classify.classify_auto`,
not a local copy) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import random
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from weilrank import classify, relfinder, search, weil
from weilrank.exactcore import IntPoly

INPUTS = Path(__file__).resolve().parent / "inputs"

# Ranks the reference must reproduce before its answers are used.
REFERENCE_SELF_CHECK = [
    ([5, -1, 1], 1),  # t^2 - t + 5 over F_5
    ([4, -4, 1], 0),  # t^2 - 4t + 4 over F_4
    ([729, -324, 72, -18, 8, -4, 1], 2),  # a non-neat sextic over F_9
    ([8, -8, 2, 0, 1, -2, 1], 2),  # the six of ROADMAP item 1
    ([8, 8, 2, 0, 1, 2, 1], 2),
    ([8, -8, 6, -6, 3, -2, 1], 2),
    ([8, 8, 6, 6, 3, 2, 1], 2),
    ([8, 0, -2, -2, -1, 0, 1], 2),
    ([8, 0, -2, 2, -1, 0, 1], 2),
]


def tail_percentile(n: int) -> float:
    """The highest percentile, to 0.1, that leaves at least ten of n samples beyond it."""
    return math.floor(1000 * (n - 10) / n) / 10


@dataclass
class Round:
    times_ns: array = field(default_factory=lambda: array("q"))
    results: list = field(default_factory=list)
    wall_ns: int = 0


@dataclass
class Checked:
    correct: bool = True
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def wrong(self, note: str) -> None:
        self.correct = False
        self.notes.append(note)


def _reference_self_check(reference, checked: Checked) -> None:
    for coeffs, rank in REFERENCE_SELF_CHECK:
        got = reference.reference_rank(coeffs)
        if got != rank:
            checked.wrong(f"reference gives rank {got} for {coeffs}, known {rank}")


def _census_op(coeffs, q):
    w = weil.validate(IntPoly(coeffs), q)
    return classify.classify_auto(w).rank


def _certify_op(coeffs, q):
    w = weil.validate(IntPoly(coeffs), q)
    o = relfinder.oracle_rank(w)
    return o.rank, o.lattice.representatives, o.lattice.basis


class PolynomialList:
    """census and certify: one operation per input polynomial."""

    def __init__(self, name: str, seed: int):
        data = json.loads((INPUTS / f"{name}.json").read_text())
        rng = random.Random(seed)
        pool, k = data["pool"], data["sample"]
        picks = [
            pool[rng.randrange(i * len(pool) // k, (i + 1) * len(pool) // k)] for i in range(k)
        ]
        self.entries = data["fixed"] + picks
        rng.shuffle(self.entries)
        self.warmup_entry = data["warmup"]
        self.name = name
        self.op = _census_op if name == "census" else _certify_op

    def warmup(self) -> None:
        self.op(self.warmup_entry["coeffs"], self.warmup_entry["q"])

    def run_round(self, tracer=None) -> Round:
        r = Round()
        start = time.perf_counter_ns()
        for e in self.entries:
            t0 = time.perf_counter_ns()
            span = tracer.open("bench.op") if tracer else None
            try:
                out = ("ok", self.op(e["coeffs"], e["q"]))
            except Exception as exc:  # a failing operation is counted, not fatal
                out = ("error", f"{type(exc).__name__}: {exc}")
            if tracer:
                tracer.close(span)
            r.times_ns.append(time.perf_counter_ns() - t0)
            r.results.append(out)
        r.wall_ns = time.perf_counter_ns() - start
        return r

    def check(self, rounds: list[Round]) -> Checked:
        import reference  # sympy loads here, after timing, not in set-up

        checked = Checked()
        _reference_self_check(reference, checked)
        for i, e in enumerate(self.entries):
            roots = reference.eigenvalues(e["coeffs"])
            ref = reference.rank_from_roots(roots)
            outs = [r.results[i] for r in rounds]
            if self.name == "census":
                self._check_census(e, ref, outs, checked, reference)
            else:
                self._check_certify(e, ref, roots, outs, checked, reference)
        return checked

    @staticmethod
    def _check_census(e, ref, outs, checked, reference) -> None:
        half = all(s == Fraction(1, 2) for s in reference.newton_slopes(e["coeffs"], e["q"]))
        if (ref == 0) != half:
            checked.wrong(f"{e['name']}: reference rank {ref} but supersingular={half}")
        for out in outs:
            if out[0] == "ok" and out[1] == ref:
                continue
            if out[0] == "error" or "fault" in e:
                checked.failed += 1
                if "fault" not in e:
                    checked.notes.append(f"{e['name']} failed: {out[1]}")
            else:
                checked.wrong(f"{e['name']}: rank {out[1]}, reference {ref}")

    @staticmethod
    def _check_certify(e, ref, roots, outs, checked, reference) -> None:
        centers = None
        seen = set()
        for out in outs:
            if out[0] == "error":
                checked.failed += 1
                checked.notes.append(f"{e['name']} failed: {out[1]}")
                continue
            rank, reps, basis = out[1]
            if rank != ref:
                checked.wrong(f"{e['name']}: oracle rank {rank}, reference {ref}")
            if (reps, basis) in seen:
                continue
            seen.add((reps, basis))
            if basis and centers is None:  # the program's root order, which the basis indexes
                w = weil.validate(IntPoly(e["coeffs"]), e["q"])
                centers = [(r.re, r.im) for r in relfinder.certified_roots(w)]
            for row in basis:
                if not reference.beta_relation_holds(roots, [centers[j] for j in reps], row):
                    checked.wrong(f"{e['name']}: basis relation {row} does not hold")


class Enumeration:
    """enumerate: stream enumerate_weil over fixed boxes."""

    name = "enumerate"

    def __init__(self, seed: int):
        data = json.loads((INPUTS / "enumerate.json").read_text())
        self.boxes = [(b["g"], b["q"]) for b in data["boxes"]]
        random.Random(seed).shuffle(self.boxes)
        self.warmup_box = (data["warmup"]["g"], data["warmup"]["q"])

    def warmup(self) -> None:
        g, q = self.warmup_box
        next(search.enumerate_weil(search.SearchSpec(g=g, q=q)))

    def run_round(self, tracer=None) -> Round:
        r = Round()
        start = time.perf_counter_ns()
        for b, (g, q) in enumerate(self.boxes):
            gen = search.enumerate_weil(search.SearchSpec(g=g, q=q))
            while True:
                t0 = time.perf_counter_ns()
                span = tracer.open("bench.op") if tracer else None
                try:
                    out = ("ok", b, tuple(next(gen).poly.coeffs))
                except StopIteration:
                    out = None  # the walk past the last polynomial: wall time only
                except Exception as exc:  # a failing operation is counted, not fatal
                    out = ("error", b, f"{type(exc).__name__}: {exc}")
                if tracer:
                    tracer.close(span)
                if out is None:
                    break
                r.times_ns.append(time.perf_counter_ns() - t0)
                r.results.append(out)
                if out[0] == "error":
                    break
        r.wall_ns = time.perf_counter_ns() - start
        return r

    def check(self, rounds: list[Round]) -> Checked:
        import reference  # numpy and sympy work here, after timing

        checked = Checked()
        for b, (g, q) in enumerate(self.boxes):
            expected = reference.weil_set(g, q)
            for r in rounds:
                got = [out[2] for out in r.results if out[1] == b and out[0] == "ok"]
                errors = [out[2] for out in r.results if out[1] == b and out[0] == "error"]
                checked.failed += len(errors)
                for err in errors:
                    checked.notes.append(f"box g={g} q={q} failed: {err}")
                if got != expected:
                    checked.wrong(
                        f"box g={g} q={q}: {len(got)} polynomials emitted, "
                        f"{len(expected)} expected, same order: {got == expected}"
                    )
        return checked


def make(name: str, seed: int):
    if name == "enumerate":
        return Enumeration(seed)
    return PolynomialList(name, seed)
