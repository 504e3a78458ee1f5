"""The benchmark tracer still finds and reaches every layer it wraps.

``bench/tracing.py`` wraps functions at the names their callers look up.  A
wrap target that a refactor removed or renamed is skipped, and every metric
it feeds is then reported as absent (``null``); a non-finite metric is
written as a bare ``NaN``.  Either way the last line of ``bench/run.py`` is
not a result.  This test runs one small call of each traced layer under the
tracer and checks that every per-layer metric is present, finite and, for
the layers these calls cross, counted.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from ersc import discretize, eigensolve, game, hjb, model, perturb, simulate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


class _Workload:
    """Stand-in for a bench workload: the tracer swaps in wrapped models."""

    def __init__(self):
        mu = np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 1.5]])
        self.models = {
            "w": model.builtin_w_network(
                arrival_rates=[1.0, 1.0, 1.0],
                service_rates=mu,
                l_vec=[-0.5, -0.5, -0.5],
                cost_weights=[1.0, 2.0, 3.0],
                n_controls=1,
            ),
            "lq": model.builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=2.0, u_max=5.0, n_controls=21),
        }

    def run(self):
        w, lq = self.models["w"], self.models["lq"]
        hjb.solve_hjb(w, discretize.build_grid([4.0] * 3, [11] * 3), tol=1e-7)
        g121 = discretize.build_grid([6.0], [121])
        perturb.kappa_sweep(lq, g121, [1.0, 0.5])
        game.game_value_sweep(lq, g121, 0.0, [1.0, 2.0])
        # a multi-control policy is looked up by nearest node along the paths
        pol = hjb.MarkovPolicy.constant(10, g121.n_nodes)
        pair = eigensolve.policy_value(lq, g121, pol, tol=1e-10)
        cfg = simulate.SimulationConfig(dt=1e-2, horizon=0.2, n_paths=16, seed=0, x0=[0.0])
        simulate.importance_sampled_cost(lq, pol, pair, cfg)


def test_traced_metrics_are_present_and_finite():
    workload = _Workload()
    tracer = tracing.Tracer()
    tracer.install(workload)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            workload.run()
            wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    spans = tracer.take()
    per_iteration = [tracing.layer_metrics(spans, wall, [str(c.message) for c in caught])]
    metrics = tracing.summarize(per_iteration, tracer.installed, overhead=0.0)
    absent = sorted(k for k, v in metrics.items() if v.get("absent"))
    assert not absent, f"wrap targets missing for {absent}"
    json.dumps(metrics, allow_nan=False)
    reached = [
        "model.calls",
        "discretize.kernel_builds",
        "discretize.assemble_calls",
        "discretize.apply_calls",
        "discretize.nearest_node_calls",
        "eigensolve.calls",
        "eigensolve.factor_calls",
        "eigensolve.trisolve_calls",
        "hjb.calls",
        "game.calls",
        "game.poisson_calls",
        "perturb.sweep_points",
        "simulate.interp_calls",
    ]
    assert [k for k in reached if metrics[k]["value"] <= 0] == []
