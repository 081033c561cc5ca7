"""Spans around the calls into each weilrank layer, and the metrics they give.

`Tracer.install` wraps the listed public functions wherever a weilrank
module binds them, including the copies that `from ... import` makes, so
a call from any layer goes through the wrapper.  A generator is timed once
per `next()`.  Spans (name, start, end, parent) stay in memory until
`write` saves them.  A layer is a module under src/weilrank/; a span's
self time is its duration less the time its child spans cover, so the
layers' busy times and the benchmark's own glue add up to the traced
operation time.  IntPoly arithmetic and the small integer helpers are not
wrapped; their time counts to the layer that calls them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYER_FUNCTIONS = {
    "exactcore": [
        "factor_over_integers", "is_irreducible", "modular_factor_degrees",
        "squarefree_part", "squarefree_decomposition", "poly_gcd", "resultant",
        "discriminant", "sturm_real_root_count", "lagrange_interpolate",
        "fractions_to_intpoly", "power_transform", "product_transform",
        "ratio_transform", "cyclotomic_part_orders", "cyclotomic_order",
    ],
    "weil": [
        "validate", "trace_polynomial", "eigenvalue_structure", "base_change",
        "ratio_torsion_orders", "beta_polynomial", "beta_torsion_orders",
        "has_unresolved_square_roots",
    ],
    "newton": [
        "newton_polygon", "root_valuation_segments", "classify_newton",
        "slope_divisibility_check",
    ],
    "subfields": [
        "conjugate_factorizations", "quadratic_subfields", "conjugate_split",
        "norm_one_witness", "norm_condition", "p_splits", "elliptic_cm_field",
        "cubic_resolvent_is_galois",
    ],
    "classify": [
        "sufficiency_degree", "classify", "classify_auto", "theorem_diagnostics",
        "fourfold_diagnostic",
    ],
    "relfinder": ["certified_roots", "verify_relation", "relation_lattice", "oracle_rank"],
    "search": ["enumerate_weil", "find_non_neat_sextics", "construct_totally_real_cubic"],
}
# exactcore spreads its public functions over submodules
_MODULE_OF = {
    "exactcore": [
        "weilrank.exactcore.factor", "weilrank.exactcore.poly", "weilrank.exactcore.transforms",
    ],
}

# Groups of spans timed together: a metric counts the spans of its group
# that are not nested inside another span of the same group.
GROUPS = {
    "exactcore.transform": ["power_transform", "product_transform", "ratio_transform"],
    "exactcore.interpolate": ["lagrange_interpolate", "fractions_to_intpoly"],
    "exactcore.cyclotomic": ["cyclotomic_part_orders", "cyclotomic_order"],
    "exactcore.factor": ["factor_over_integers", "is_irreducible", "modular_factor_degrees"],
    "exactcore.sturm": ["sturm_real_root_count"],
    "weil.validate": ["validate"],
    "weil.torsion": ["ratio_torsion_orders", "beta_torsion_orders"],
    "weil.base_change": ["base_change"],
    "classify.sufficiency": ["sufficiency_degree"],
    "relfinder.roots": ["certified_roots"],
    "relfinder.verify": ["verify_relation"],
}

# What a span keeps from its function's result.
_RESULT_INFO = {
    "relfinder.verify_relation": lambda r: (r.precision_bits, r.holds),
    "relfinder.oracle_rank": lambda r: r.confidence,
}

# name -> (unit, better); the order in which the traced run reports them.
PER_LAYER_METRICS = {
    "exactcore.busy_s": ("s", "lower"),
    "exactcore.transform_s": ("s", "lower"),
    "exactcore.transform_calls": ("count", "lower"),
    "exactcore.interpolate_s": ("s", "lower"),
    "exactcore.cyclotomic_s": ("s", "lower"),
    "exactcore.cyclotomic_calls": ("count", "lower"),
    "exactcore.factor_s": ("s", "lower"),
    "exactcore.factor_calls": ("count", "lower"),
    "exactcore.sturm_s": ("s", "lower"),
    "weil.busy_s": ("s", "lower"),
    "weil.validate_s": ("s", "lower"),
    "weil.validate_calls": ("count", "lower"),
    "weil.torsion_s": ("s", "lower"),
    "weil.torsion_calls": ("count", "lower"),
    "weil.base_change_calls": ("count", "lower"),
    "newton.busy_s": ("s", "lower"),
    "subfields.busy_s": ("s", "lower"),
    "subfields.calls": ("count", "lower"),
    "classify.busy_s": ("s", "lower"),
    "classify.sufficiency_s": ("s", "lower"),
    "classify.oracle_calls": ("count", "lower"),
    "relfinder.busy_s": ("s", "lower"),
    "relfinder.roots_s": ("s", "lower"),
    "relfinder.roots_calls": ("count", "lower"),
    "relfinder.verify_s": ("s", "lower"),
    "relfinder.verify_calls": ("count", "lower"),
    "relfinder.verify_bits_mean": ("bits", "lower"),
    "relfinder.verify_useful": ("ratio", "higher"),
    "relfinder.scan_s": ("s", "lower"),
    "relfinder.exact_results": ("count", "higher"),
    "search.busy_s": ("s", "lower"),
}


class Tracer:
    """In-memory spans; one instance per traced process."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.info: list = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.info.append(None)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int, result=None) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        keep = _RESULT_INFO.get(self.name[i])
        if keep is not None and result is not None:
            self.info[i] = keep(result)

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    i = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(i, result)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every weilrank module that binds it."""
        targets, found = {}, set()
        for layer, names in LAYER_FUNCTIONS.items():
            for modname in _MODULE_OF.get(layer, [f"weilrank.{layer}"]):
                mod = sys.modules[modname]
                for fname in names:
                    fn = vars(mod).get(fname)
                    if inspect.isfunction(fn) and fn.__module__ == modname:
                        targets[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
                        found.add(f"{layer}.{fname}")
        missing = {f"{l}.{f}" for l, fs in LAYER_FUNCTIONS.items() for f in fs} - found
        if missing:
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")
        for modname, mod in list(sys.modules.items()):
            if modname != "weilrank" and not modname.startswith("weilrank."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- reading --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i in range(len(self.name)):
                out.write(
                    json.dumps([self.name[i], self.start[i], self.end[i], self.parent[i]]) + "\n"
                )

    def layer_metrics(self, rounds: int) -> tuple[dict, dict]:
        """(per-layer metrics per round, busy seconds per layer and glue per round)."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        layer = [s.split(".", 1)[0] for s in self.name]
        func = [s.split(".", 1)[1] if "." in s else s for s in self.name]
        busy = defaultdict(int)
        for i in range(n):
            busy[layer[i]] += dur[i] - child[i]
        group_of = {}
        for group, fnames in GROUPS.items():
            lay = group.split(".", 1)[0]
            for f in fnames:
                group_of[(lay, f)] = group
        g_time, g_calls = defaultdict(int), defaultdict(int)
        for i in range(n):
            group = group_of.get((layer[i], func[i]))
            if group is None:
                continue
            a = self.parent[i]
            while a >= 0 and group_of.get((layer[a], func[a])) != group:
                a = self.parent[a]
            if a < 0:  # outermost span of its group
                g_time[group] += dur[i]
                g_calls[group] += 1
        sub_calls = oracle_from_classify = scan = exact = 0
        bits = []
        holds = 0
        for i in range(n):
            par = self.parent[i]
            if layer[i] == "subfields" and (par < 0 or layer[par] != "subfields"):
                sub_calls += 1
            if self.name[i] == "relfinder.oracle_rank":
                if par >= 0 and layer[par] == "classify":
                    oracle_from_classify += 1
                if self.info[i] == "certified_exact":
                    exact += 1
            elif self.name[i] == "relfinder.relation_lattice":
                scan += dur[i] - child[i]
            elif self.name[i] == "relfinder.verify_relation" and self.info[i] is not None:
                bits.append(self.info[i][0])
                holds += self.info[i][1]
        s = 1e-9 / rounds
        m = {
            "exactcore.busy_s": busy["exactcore"] * s,
            "exactcore.transform_s": g_time["exactcore.transform"] * s,
            "exactcore.transform_calls": g_calls["exactcore.transform"] / rounds,
            "exactcore.interpolate_s": g_time["exactcore.interpolate"] * s,
            "exactcore.cyclotomic_s": g_time["exactcore.cyclotomic"] * s,
            "exactcore.cyclotomic_calls": g_calls["exactcore.cyclotomic"] / rounds,
            "exactcore.factor_s": g_time["exactcore.factor"] * s,
            "exactcore.factor_calls": g_calls["exactcore.factor"] / rounds,
            "exactcore.sturm_s": g_time["exactcore.sturm"] * s,
            "weil.busy_s": busy["weil"] * s,
            "weil.validate_s": g_time["weil.validate"] * s,
            "weil.validate_calls": g_calls["weil.validate"] / rounds,
            "weil.torsion_s": g_time["weil.torsion"] * s,
            "weil.torsion_calls": g_calls["weil.torsion"] / rounds,
            "weil.base_change_calls": g_calls["weil.base_change"] / rounds,
            "newton.busy_s": busy["newton"] * s,
            "subfields.busy_s": busy["subfields"] * s,
            "subfields.calls": sub_calls / rounds,
            "classify.busy_s": busy["classify"] * s,
            "classify.sufficiency_s": g_time["classify.sufficiency"] * s,
            "classify.oracle_calls": oracle_from_classify / rounds,
            "relfinder.busy_s": busy["relfinder"] * s,
            "relfinder.roots_s": g_time["relfinder.roots"] * s,
            "relfinder.roots_calls": g_calls["relfinder.roots"] / rounds,
            "relfinder.verify_s": g_time["relfinder.verify"] * s,
            "relfinder.verify_calls": g_calls["relfinder.verify"] / rounds,
            "relfinder.verify_bits_mean": sum(bits) / len(bits) if bits else 0.0,
            "relfinder.verify_useful": holds / len(bits) if bits else 0.0,
            "relfinder.scan_s": scan * s,
            "relfinder.exact_results": exact / rounds,
            "search.busy_s": busy["search"] * s,
        }
        if list(m) != list(PER_LAYER_METRICS):
            raise RuntimeError("per-layer metrics out of step with PER_LAYER_METRICS")
        return m, {k: v * s for k, v in busy.items()}
