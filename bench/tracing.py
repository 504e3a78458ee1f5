"""Layer spans recorded from outside the program.

``Tracer.install`` replaces functions at the names their callers look up
(module attributes, class attributes, the scipy factorizations and the model
callables) with wrappers that append a span ``[name, start, end, parent,
info]`` to an in-memory list.  ``layer_metrics`` turns one iteration's spans
into the per-layer metrics; ``write_spans`` saves every span when the run ends.

A wrap target that no longer exists (after a refactor) is skipped, and every
metric it feeds is reported as absent instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import re
import statistics
import time

import numpy as np

NAME, START, END, PARENT, INFO = range(5)

# per-layer metric -> (unit, span names that must have been installed)
METRICS = {
    "model.calls": ("count", ["model.drift", "model.cost", "model.sigma"]),
    "model.s": ("s", ["model.drift", "model.cost", "model.sigma"]),
    "discretize.kernel_builds": ("count", ["discretize.kernel_build"]),
    "discretize.kernel_build_s": ("s", ["discretize.kernel_build"]),
    "discretize.assemble_calls": ("count", ["discretize.assemble"]),
    "discretize.assemble_s": ("s", ["discretize.assemble"]),
    "discretize.apply_calls": ("count", ["discretize.apply_drift", "discretize.apply_diffusion"]),
    "discretize.apply_s": ("s", ["discretize.apply_drift", "discretize.apply_diffusion"]),
    "discretize.nearest_node_calls": ("count", ["discretize.nearest_node"]),
    "discretize.nearest_node_s": ("s", ["discretize.nearest_node"]),
    "eigensolve.calls": ("count", ["eigensolve.principal_eigenpair"]),
    "eigensolve.iterations": ("count", ["eigensolve.principal_eigenpair"]),
    "eigensolve.self_s": ("s", ["eigensolve.principal_eigenpair"]),
    "eigensolve.factor_calls": ("count", ["eigensolve.principal_eigenpair", "scipy.splu", "scipy.lu_factor"]),
    "eigensolve.factor_s": ("s", ["eigensolve.principal_eigenpair", "scipy.splu", "scipy.lu_factor"]),
    "eigensolve.lu_nnz": ("count", ["eigensolve.principal_eigenpair", "scipy.splu", "scipy.lu_factor"]),
    "eigensolve.trisolve_calls": ("count", ["eigensolve.principal_eigenpair", "scipy.superlu_solve", "scipy.lu_solve"]),
    "eigensolve.trisolve_s": ("s", ["eigensolve.principal_eigenpair", "scipy.superlu_solve", "scipy.lu_solve"]),
    "eigensolve.bracket_width": ("1", ["eigensolve.principal_eigenpair"]),
    "hjb.calls": ("count", ["hjb.solve_hjb"]),
    "hjb.howard_steps": ("count", ["hjb.solve_hjb"]),
    "hjb.self_s": ("s", ["hjb.solve_hjb"]),
    "hjb.residual": ("1", ["hjb.solve_hjb"]),
    "game.calls": ("count", ["game.solve_ergodic_game", "game.average_cost_solve"]),
    "game.iterations": ("count", ["game.solve_ergodic_game"]),
    "game.poisson_calls": ("count", ["game.solve_poisson"]),
    "game.poisson_s": ("s", ["game.solve_poisson"]),
    "game.self_s": ("s", ["game.solve_ergodic_game", "game.average_cost_solve", "game.game_value_sweep"]),
    "perturb.sweep_points": ("count", ["perturb.epsilon_sweep", "perturb.kappa_sweep"]),
    "perturb.self_s": ("s", ["perturb.epsilon_sweep", "perturb.kappa_sweep", "perturb.family_from_h"]),
    "simulate.path_steps": ("count", ["model.cost", "simulate.simulate"]),
    "simulate.self_s": ("s", ["simulate.simulate"]),
    "simulate.interp_calls": ("count", ["simulate.interp"]),
    "simulate.interp_s": ("s", ["simulate.interp"]),
    "simulate.clipped": ("count", []),
    "simulate.excluded": ("count", ["simulate.simulate"]),
    "trace.spans": ("count", []),
    "trace.uncovered_share": ("ratio", []),
    "trace.overhead": ("ratio", []),
}

CLIPPED = re.compile(r"(\d+) state evaluations clipped")


def _rows(args, kwargs, out):
    """Number of states a model callback evaluated: rows of its (n, d) input."""
    shape = np.shape(args[0])
    return shape[0] if len(shape) >= 2 else 1


class _TracedFactor:
    """SuperLU stand-in whose ``solve`` is traced; other attributes delegate."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, key):
        return getattr(self._lu, key)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.installed = set()

    def wrap(self, name, fn, info=None):
        """Return ``fn`` recording a span per call; ``info(args, kwargs, out)``
        runs after the span closes and stores a small record on it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, name, info=None, make=None):
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        new = make(orig) if make else self.wrap(name, orig, info)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))
        self.installed.add(name)

    def _patch_path(self, path, attr, name, info=None, make=None):
        try:
            owner = importlib.import_module(path)
        except ImportError:
            return
        for part in attr.split(".")[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        self._patch(owner, attr.split(".")[-1], name, info, make)

    def install(self, workload):
        """Wrap every layer boundary the workloads cross."""
        p = self._patch_path
        eig_info = lambda a, k, out: (out.iterations, out.bracket_width)  # noqa: E731
        p("ersc.hjb", "principal_eigenpair", "eigensolve.principal_eigenpair", eig_info)
        p("ersc.eigensolve", "principal_eigenpair", "eigensolve.principal_eigenpair", eig_info)
        hjb_info = lambda a, k, out: (len(out.history), out.residual)  # noqa: E731
        p("ersc.hjb", "solve_hjb", "hjb.solve_hjb", hjb_info)
        p("ersc.perturb", "solve_hjb", "hjb.solve_hjb", hjb_info)
        p("ersc.game", "solve_poisson", "game.solve_poisson")
        p("ersc.game", "solve_ergodic_game", "game.solve_ergodic_game",
          lambda a, k, out: out.iterations)
        p("ersc.game", "average_cost_solve", "game.average_cost_solve")
        p("ersc.game", "game_value_sweep", "game.game_value_sweep")
        sweep_info = lambda a, k, out: len(out.entries)  # noqa: E731
        p("ersc.perturb", "epsilon_sweep", "perturb.epsilon_sweep", sweep_info)
        p("ersc.perturb", "kappa_sweep", "perturb.kappa_sweep", sweep_info)
        p("ersc.perturb", "family_from_h", "perturb.family_from_h")
        p("ersc.discretize", "OperatorKernel.__init__", "discretize.kernel_build")
        p("ersc.discretize", "OperatorKernel.assemble", "discretize.assemble")
        p("ersc.discretize", "OperatorKernel.apply_drift", "discretize.apply_drift")
        p("ersc.discretize", "OperatorKernel.apply_diffusion", "discretize.apply_diffusion")
        p("ersc.discretize", "Grid.nearest_node", "discretize.nearest_node")
        p("ersc.simulate", "simulate", "simulate.simulate", lambda a, k, out: out.excluded)
        for fn in ("estimate_rsc_cost", "importance_sampled_cost", "check_stochastic_representation"):
            p("ersc.simulate", fn, f"simulate.{fn}")
        p("ersc.simulate", "grid_interpolator", "simulate.interp", make=self._interp_factory)
        p("scipy.sparse.linalg", "splu", "scipy.splu", make=self._splu)
        p("scipy.linalg", "lu_factor", "scipy.lu_factor",
          lambda a, k, out: int(out[0].size))
        p("scipy.linalg", "lu_solve", "scipy.lu_solve")
        for key, m in workload.models.items():
            fields = {}
            for f in ("drift", "cost", "sigma"):
                fields[f] = self.wrap(f"model.{f}", getattr(m, f), _rows)
                self.installed.add(f"model.{f}")
            workload.models[key] = dataclasses.replace(m, **fields)
            self._undo.append((workload.models, key, m))

    def _interp_factory(self, orig):
        @functools.wraps(orig)
        def grid_interpolator(*args, **kwargs):
            return self.wrap("simulate.interp", orig(*args, **kwargs))

        return grid_interpolator

    def _splu(self, orig):
        traced = self.wrap("scipy.splu", orig, lambda a, k, out: int(out.nnz))
        self.installed.add("scipy.superlu_solve")

        @functools.wraps(orig)
        def splu(*args, **kwargs):
            lu = traced(*args, **kwargs)
            return _TracedFactor(lu, self.wrap("scipy.superlu_solve", lu.solve))

        return splu

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    def take(self):
        """Return the spans recorded since the last call and start afresh."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def write_spans(path, iterations) -> None:
    """Write spans as gzip CSV: iteration, name, start, end, parent index."""
    with gzip.open(path, "wt") as fh:
        fh.write("iteration,name,start,end,parent\n")
        for i, spans in enumerate(iterations):
            for s in spans:
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]}\n")


def layer_metrics(spans, wall: float, warn_messages) -> dict:
    """Per-layer metrics of one traced iteration of ``wall`` seconds."""
    n = len(spans)
    child = [0.0] * n
    covered = 0.0
    for s in spans:
        d = s[END] - s[START]
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
        else:
            covered += d
    selfs = [s[END] - s[START] - c for s, c in zip(spans, child)]

    def layer(i):
        return spans[i][NAME].split(".")[0]

    m = {k: 0 for k in METRICS}
    m.update({k: 0.0 for k, (u, _) in METRICS.items() if u == "s"})
    m["eigensolve.bracket_width"] = 0.0
    m["hjb.residual"] = 0.0
    for i, s in enumerate(spans):
        name, info, parent = s[NAME], s[INFO], s[PARENT]
        if name.startswith("model."):
            m["model.calls"] += 1
            m["model.s"] += selfs[i]
            if name == "model.cost" and parent >= 0 and layer(parent) == "simulate":
                m["simulate.path_steps"] += info
        elif name == "discretize.kernel_build":
            m["discretize.kernel_builds"] += 1
            m["discretize.kernel_build_s"] += selfs[i]
        elif name == "discretize.assemble":
            m["discretize.assemble_calls"] += 1
            m["discretize.assemble_s"] += selfs[i]
        elif name.startswith("discretize.apply_"):
            m["discretize.apply_calls"] += 1
            m["discretize.apply_s"] += selfs[i]
        elif name == "discretize.nearest_node":
            m["discretize.nearest_node_calls"] += 1
            m["discretize.nearest_node_s"] += selfs[i]
        elif name == "eigensolve.principal_eigenpair":
            m["eigensolve.calls"] += 1
            m["eigensolve.iterations"] += info[0]
            m["eigensolve.bracket_width"] = max(m["eigensolve.bracket_width"], info[1])
            m["eigensolve.self_s"] += selfs[i]
        elif name.startswith("scipy."):
            if parent < 0 or layer(parent) != "eigensolve":
                continue  # the bordered Poisson solve counts in game.poisson_s
            if name in ("scipy.splu", "scipy.lu_factor"):
                m["eigensolve.factor_calls"] += 1
                m["eigensolve.factor_s"] += selfs[i]
                m["eigensolve.lu_nnz"] = max(m["eigensolve.lu_nnz"], info)
            else:
                m["eigensolve.trisolve_calls"] += 1
                m["eigensolve.trisolve_s"] += selfs[i]
        elif name == "hjb.solve_hjb":
            m["hjb.calls"] += 1
            m["hjb.howard_steps"] += info[0]
            m["hjb.residual"] = max(m["hjb.residual"], info[1])
            m["hjb.self_s"] += selfs[i]
        elif name == "game.solve_poisson":
            m["game.poisson_calls"] += 1
            m["game.poisson_s"] += s[END] - s[START]
        elif name.startswith("game."):
            if name in ("game.solve_ergodic_game", "game.average_cost_solve"):
                m["game.calls"] += 1
            if name == "game.solve_ergodic_game":
                m["game.iterations"] += info
            m["game.self_s"] += selfs[i]
        elif name.startswith("perturb."):
            if info is not None:
                m["perturb.sweep_points"] += info
            m["perturb.self_s"] += selfs[i]
        elif name == "simulate.interp":
            m["simulate.interp_calls"] += 1
            m["simulate.interp_s"] += selfs[i]
        elif name.startswith("simulate."):
            m["simulate.self_s"] += selfs[i]
            if info is not None:
                m["simulate.excluded"] += info
    for msg in warn_messages:
        hit = CLIPPED.search(msg)
        if hit:
            m["simulate.clipped"] += int(hit.group(1))
    m["trace.spans"] = n
    m["trace.uncovered_share"] = max(0.0, wall - covered) / wall
    return m


def summarize(per_iteration, installed, overhead) -> dict:
    """Median of each metric over traced iterations, with units; metrics
    whose wrap targets are missing are marked absent."""
    out = {}
    for key, (unit, needs) in METRICS.items():
        if key == "trace.overhead":
            out[key] = {"value": overhead, "unit": unit}
        elif all(n in installed for n in needs):
            value = statistics.median(it[key] for it in per_iteration)
            if unit == "count" and value == int(value):
                value = int(value)
            out[key] = {"value": value, "unit": unit}
        else:
            out[key] = {"value": None, "unit": unit, "absent": True}
    return out
