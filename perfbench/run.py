"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in this process, with
one BLAS/OpenMP thread.  Set-up is timed from the first line of this file
to the end of imports and input loading; with --trace 0 it is the median
of this process and SETUP_PROBES more that only set up.  After one
untimed warm-up operation the run repeats whole rounds of its operation
list until --seconds have passed.  With --trace 0 the result holds the end-to-end
metrics.  With --trace 1 it alternates untraced and traced rounds, at least
one of each, and holds the per-layer metrics of the traced ones; the lines
before it give the layer table and the tracing overhead.
"""

import os
import time

T0 = time.perf_counter()
# numpy starts a second BLAS thread at import unless told not to
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# One set-up sample spreads by about 20% from run to run (perfbench/README.md)
SETUP_PROBES = 8


def _nearest_rank(sorted_values, pct):
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(k) - 1]


def _rate(rounds) -> float:
    """Operations finished per second of timed wall time."""
    return sum(len(r.times_ns) for r in rounds) / (sum(r.wall_ns for r in rounds) * 1e-9)


def _end_to_end(rounds, tail_pct, setup_s, rss_mb):
    times = sorted(t for r in rounds for t in r.times_ns)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "polys_per_s": {"value": _rate(rounds), "unit": "1/s"},
        "poly_p50_ms": {"value": statistics.median(times) * 1e-6, "unit": "ms"},
        "poly_tail_ms": {"value": _nearest_rank(times, tail_pct) * 1e-6, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def _setup_probe(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return float(proc.stdout)


def _print_layer_table(busy, rounds, traced_rounds, workload, seed, metrics):
    op_s = sum(r.wall_ns for r in traced_rounds) * 1e-9 / len(traced_rounds)
    total = sum(busy.values())
    print(f"layer table: {workload}, seed {seed}, per traced round ({len(traced_rounds)} traced)")
    print(f"  {'layer':<12}{'busy_s':>10}{'share':>8}")
    for layer in [*(l for l in busy if l != "bench"), "bench"]:
        print(f"  {layer + (' glue' if layer == 'bench' else ''):<12}"
              f"{busy.get(layer, 0.0):>10.4f}{busy.get(layer, 0.0) / total:>8.1%}")
    print(f"  busy times add up to {total:.4f} s; traced round wall time {op_s:.4f} s")
    untraced, traced = _rate(rounds), _rate(traced_rounds)
    print(f"tracing overhead: {untraced:.2f} polys/s untraced, {traced:.2f} traced, "
          f"traced/untraced = {traced / untraced:.3f}")
    for name, value in metrics.items():
        print(f"  {name:<28}{value['value']:>14.6g} {value['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("census", "certify", "enumerate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "weilrank" / "__init__.py").is_file():
        print(f"no weilrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import weilrank

    if Path(weilrank.__file__).resolve().parent.parent != SRC.resolve():
        print(f"weilrank came from {weilrank.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(setup_s)
        return 0
    if not args.trace:
        setup_s = statistics.median([setup_s, *(_setup_probe(args) for _ in range(SETUP_PROBES))])

    wl.warmup()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            tracer.install()
            try:
                r = wl.run_round(tracer)
            finally:
                tracer.uninstall()
            traced.append(r)
        else:
            r = wl.run_round()
            plain.append(r)
        if r.results == plain[0].results:
            r.results = plain[0].results  # one copy, so memory does not grow with rounds
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or traced):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = plain + traced
    checked = wl.check(rounds)
    for note in checked.notes:
        print(f"check: {note}")

    if tracer is None:
        tail_pct = workloads.tail_percentile(len(rounds[0].times_ns))
        metrics = _end_to_end(plain, tail_pct, setup_s, rss_mb)
    else:
        from spans import PER_LAYER_METRICS

        values, busy = tracer.layer_metrics(len(traced))
        metrics = {k: {"value": v, "unit": PER_LAYER_METRICS[k][0]} for k, v in values.items()}
        _print_layer_table(busy, plain, traced, args.workload, args.seed, metrics)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(
        json.dumps(
            {
                "correct": checked.correct,
                "attempted": sum(len(r.times_ns) for r in rounds),
                "failed": checked.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
