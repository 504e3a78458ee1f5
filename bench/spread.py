"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads w3d_hjb mc_plain --seeds 1 2 3 4 5
    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out runs.json

Runs ``run.py`` once per (seed, workload), one after another, with the
``run_seconds`` of ``BENCHMARK.json``.  For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median, next to the metric's bound.
A spread above a third of the bound marks the metric as not yet steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--out", type=Path, help="write every run's result as JSON")
    args = ap.parse_args(argv)

    # seed-major order, so a slow spell of a shared host lands on a run or
    # two of every workload instead of on most runs of one
    runs = {wl: [] for wl in args.workloads}
    for seed in args.seeds:
        for wl in args.workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=240)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["seed"] = seed
            res["report"] = lines[:-1]
            runs[wl].append(res)
            vals = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
            print(f"{wl} seed {seed}: correct={res['correct']} {vals}", flush=True)

    steady = True
    for wl, results in runs.items():
        for metric in spec["end_to_end"]:
            vals = [r["metrics"][metric["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            ok = metric["name"] == "setup_s" or share < metric["bound"] / 3
            steady &= ok
            print(f"{wl:11s} {metric['name']:12s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}"
                  f"  iqr/median {share:7.4f}  bound {metric['bound']:.2f}  {'ok' if ok else 'WIDE'}")
        print(f"{wl:11s} correct in {sum(r['correct'] for r in results)} of {len(results)} runs")
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1))
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
