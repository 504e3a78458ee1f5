"""Run one workload in this process and print its raw figures as JSON.

Started by ``run.py``, one process per workload so that peak resident
memory belongs to that workload alone.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, imports, model and grid construction, reference
solves and the warm-up call.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path


def timed_loop(wl, seconds: float, tracer=None):
    """Call ``wl.run()`` until another call would overrun ``seconds``."""
    its = []
    start = time.perf_counter()
    while True:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = time.perf_counter()
            try:
                fp, checks, stderr = wl.run()
            except Exception as exc:  # a solver error is a failed check
                traceback.print_exc()
                fp, checks, stderr = None, {f"raised {type(exc).__name__}: {exc}": False}, None
            wall = time.perf_counter() - t
        it = {"wall": wall, "fp": fp, "checks": {k: bool(v) for k, v in checks.items()},
              "stderr": stderr, "warnings": [str(w.message) for w in caught]}
        if tracer is not None:
            it["spans"] = tracer.take()
        its.append(it)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(i["wall"] for i in its) > seconds:
            return its


def blas_info() -> dict:
    """BLAS name and version numpy was built with, and the live thread count
    of the OpenBLAS copies that the numpy and scipy wheels bundle."""
    import numpy as np
    import scipy

    info = {"name": None, "version": None, "threads": {}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("lib*openblas*.so*")):
            dll = ctypes.CDLL(str(lib))  # already loaded: same handle
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"][pkg.__name__] = int(fn())
                    break
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--spans", type=Path, help="traced mode: gzip CSV of every span")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    its = timed_loop(wl, args.seconds)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install(wl)
        traced = timed_loop(wl, args.seconds, tracer)
        tracer.uninstall()
        layers = [tracing.layer_metrics(i["spans"], i["wall"], i["warnings"]) for i in traced]
        overhead = statistics.median(i["wall"] for i in traced) / statistics.median(
            i["wall"] for i in its
        )
        out["layers"] = tracing.summarize(layers, tracer.installed, overhead)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracing.write_spans(args.spans, [i["spans"] for i in traced])
        its += traced

    # every later call, traced or not, must reproduce the first call's outputs
    for i in its[1:]:
        key = "trace_reproduces_outputs" if "spans" in i else "repeat_reproduces_outputs"
        i["checks"][key] = i["fp"] is not None and i["fp"] == its[0]["fp"]
    out["iterations"] = [
        {"wall": i["wall"], "traced": "spans" in i, "checks": i["checks"],
         "stderr": i["stderr"], "warnings": sorted(set(i["warnings"]))}
        for i in its
    ]
    out["tta_target"] = wl.tta_target
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
