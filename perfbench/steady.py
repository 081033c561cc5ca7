"""Measure the benchmark's own spread: two sets of runs, one seed per run.

    python3 perfbench/steady.py [--runs 10] [--sets 2]

`--runs 1 --sets 1` runs every workload once and prints its metrics.

Runs perfbench/run.py --runs times per workload of BENCHMARK.json and
set, one after the other, each with a new seed (set s uses seeds s*runs+1 .. s*runs+runs).
For every end-to-end metric it prints each set's median and quartiles, the
spread (third quartile less first, over the median, as
statistics.quantiles(values, n=4) gives them), how much worse the later
set's median is than the first's, and the bound from BENCHMARK.json.  The
raw results go to perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args(argv)
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = s * args.runs + i + 1
                t0 = time.monotonic()
                res = _run(w, seed, bench["run_seconds"])
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: {time.monotonic() - t0:.0f} s, "
                      f"correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                      flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(results, indent=1))

    print(f"\n{'workload':<10}{'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>8}{'worse':>8}{'bound':>7}")
    for w in workloads:
        for m in bench["end_to_end"]:
            medians = []
            for s in range(args.sets):
                vals = [r["metrics"][m["name"]]["value"] for r in results[w][s]]
                q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
                medians.append(med)
                worse = ""
                if s:
                    change = medians[-1] / medians[0] - 1
                    worse = f"{(change if m['better'] == 'lower' else -change):+.1%}"
                print(f"{w:<10}{m['name']:<14}{s + 1:>4}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                      f"{(q3 - q1) / med:>8.1%}{worse:>8}{m['bound']:>7}")
        for s in range(args.sets):
            runs = results[w][s]
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"{w:<10}set {s + 1}: all correct={all(r['correct'] for r in runs)}, "
                  f"failed shares={sorted(shares)}")
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
