"""Benchmark of ersc: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src``.
Workloads (see ``workloads.py``): w3d_hjb, lq_sweeps, mc_plain, mc_twisted.

``--trace 0`` times the workload with tracing off and reports the end-to-end
metrics; set-up time is the median over three fresh processes.  ``--trace 1``
times it untraced, then again with layer spans recorded from outside the
program, and reports the per-layer metrics, the tracing overhead and the
share of traced time no layer span covers.  Every workload runs in its own
process with one BLAS thread.

The report goes to standard output; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
DEADLINE_S = 170.0  # the whole run, set-up probes included
SETUP_PROBES = 2  # extra set-up-only processes; with the timed one, 3 samples


def start_worker(mode: str, args, deadline: float, extra=()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setups) -> dict:
    its = [i for i in res["iterations"] if not i["traced"]]
    walls = [i["wall"] for i in its]
    wall = statistics.median(walls)
    target = res["tta_target"]
    # a solver workload reaches its stated tolerance in one converged call
    tta = wall if target is None else statistics.median(
        i["wall"] * (i["stderr"] / target) ** 2 for i in its
    )
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        "tta_s": {"value": tta, "unit": "s"},
    }


def report(args, res, metrics, attempted, failed, samples) -> None:
    env = res["env"]
    blas = env["blas"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(
        f"env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, BLAS {blas['name']} {blas['version']}, threads "
        + (", ".join(f"{k} {v}" for k, v in blas["threads"].items()) or "unknown")
    )
    for key, m in metrics.items():
        val = "absent" if m.get("absent") else f"{m['value']:.6g}"
        note = samples.get(key, "")
        print(f"  {key:32s} {val:>14s} {m['unit']:6s} {note}")
    rate = failed / attempted
    print(f"  {'fail_rate':32s} {rate:>14.6g} {'ratio':6s} {failed} failed of {attempted} checks")
    for n, it in enumerate(res["iterations"]):
        for name, ok in it["checks"].items():
            if not ok:
                print(f"  FAILED check (call {n}): {name}")
        for w in it["warnings"]:
            print(f"  warning (call {n}): {w}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ersc" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            res = start_worker("traced", args, deadline, ["--spans", str(spans)])
        else:
            setups = [start_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            res = start_worker("timed", args, deadline)
            setups.append(res["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = [ok for it in res["iterations"] for ok in it["checks"].values()]
    attempted, failed = len(checks), checks.count(False)
    n_timed = sum(not i["traced"] for i in res["iterations"])
    if args.trace:
        metrics = res["layers"]
        samples = {"trace.overhead": f"traced / untraced wall, {n_timed} untraced calls"}
    else:
        metrics = end_to_end(res, setups)
        samples = {
            "wall_s": f"median of {n_timed} calls: "
            + " ".join(f"{i['wall']:.3f}" for i in res["iterations"]),
            "setup_s": f"median of {len(setups)} processes",
            "tta_s": "= wall_s" if res["tta_target"] is None
            else f"median of {n_timed} calls, target stderr {res['tta_target']:g}",
        }
        stderrs = [i["stderr"] for i in res["iterations"] if i["stderr"] is not None]
        if stderrs:
            samples["tta_s"] += f" (estimator stderr {statistics.median(stderrs):.4g})"
    report(args, res, metrics, attempted, failed, samples)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
