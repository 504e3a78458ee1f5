"""Command-line front end: config parsing, orchestration, report emission.

Usage:
    ersc <command> --config <path> [--out <dir>] [--seed S]

Commands: eigen, hjb, game, sweep-eps, sweep-kappa, simulate, verify-var,
check-assumptions, rep-check.  Configs are YAML with nested blocks (model,
grid, solver, sweep, perturb, simulation, output, ...); experiments are
archival artifacts, so everything except the command name and paths lives in
the config.  Every key is read through ``_get``, which checks its kind and
names it in any error; each command reads all its keys before its first solve.

Each command is one entry of a dispatch table: a function of the config and
the seed that returns ``(results, tables)``.  ``results`` becomes the
"results" block of report.json; ``tables`` maps a CSV file name to
``(header, rows)``.  ``run`` is the only writer: report.json (with the config
digest, stable under canonical re-emission), config.canonical.yaml and every
table through one CSV writer (header row, comma separated, '.' decimal).

Exit status: 0 success, 2 invalid command line or config (any ValueError,
OverflowError or PerturbationError, which the library and numpy raise on
invalid inputs), 3 solver
non-convergence or a non-monotone scheme.  Every failure prints a single
machine-parsable line "ERROR:<category>: <message>".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .discretize import Grid, GridSchemeError, build_grid
from .eigensolve import EigenSolveError, policy_value
from .game import GameSolveError, default_truncation_rule, game_value_sweep, solve_ergodic_game
from .hjb import HjbError, MarkovPolicy, solve_hjb
from .model import (
    ControlSet,
    DiffusionModel,
    ModelError,
    QuadraticLyapLog,
    RegionSpec,
    builtin_ou_lq,
    builtin_w_network,
    check_assumptions,
)
from .perturb import (
    PerturbationError,
    build_h,
    epsilon_sweep,
    family_from_h,
    kappa_sweep,
)
from .simulate import (
    SimulationConfig,
    _is_int,
    check_stochastic_representation,
    estimate_rsc_cost,
    mem_tightness_report,
    simulate,
)
from .variational import FiniteNoiseSpace, gibbs_identity_check, kl_divergence

__all__ = ["main", "run", "load_config", "canonical_digest"]

_SOLVER_ERRORS = (EigenSolveError, HjbError, GameSolveError, GridSchemeError)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config does not parse as YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def canonical_dump(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


def canonical_digest(cfg: dict) -> str:
    return hashlib.sha256(canonical_dump(cfg).encode()).hexdigest()


_REQUIRED = object()


def _finite(value) -> bool:
    """Whether ``value`` is a finite real number (NaN fails the comparison; a bool is none)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < np.inf


def _numbers(value) -> bool:
    return isinstance(value, list) and bool(value) and all(_finite(v) for v in value)


_KINDS = {
    "number": _finite,
    "positive": lambda v: _finite(v) and v > 0,
    "numbers": _numbers,
    # rows of one length, so the value reads as a 2-d array
    "matrix": lambda v: type(v) is list and all(map(_numbers, v)) and len(set(map(len, v))) == 1,
    "bool": lambda v: isinstance(v, bool),
    "mapping": lambda v: isinstance(v, dict),
    "text": lambda v: isinstance(v, str),
}


def _get(cfg: dict, path: str, kind: str, default=_REQUIRED):
    """The config value at the dotted ``path``, checked to be of ``kind``.

    Kinds: "number" (finite, read as a float), "positive" (a finite number
    > 0), "numbers" (a non-empty list of finite numbers, read as floats),
    "matrix" (a non-empty list of such lists, all of one length, read as a
    2-d float array), "int>=N" (an integer of at least N: 7.0 reads as 7,
    while a fraction, a bool or text is rejected, not truncated), "bool",
    "mapping" and "text".  An absent or null key gives ``default``, and is an
    error when there is none; every block on the way must be a mapping.  Each
    failure is a ConfigError naming the path.
    """
    node, keys = cfg, path.split(".")
    for depth, key in enumerate(keys):
        if not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(keys[:depth])} must be a mapping, got {node!r}")
        node = node.get(key)
        if node is None:
            if default is _REQUIRED:
                raise ConfigError(f"{path} is required")
            return default
    if kind.startswith("int>="):
        node = int(node) if isinstance(node, float) and node % 1 == 0 else node
        ok = _is_int(node) and node >= int(kind[5:])
    else:
        ok = _KINDS[kind](node)
    if not ok:
        raise ConfigError(f"{path}: expected {kind}, got {node!r}")
    if kind in ("number", "positive"):
        return float(node)
    if kind == "numbers":
        return [float(v) for v in node]
    return np.asarray(node, dtype=float) if kind == "matrix" else node


def build_model(cfg: dict) -> DiffusionModel:
    name = _get(cfg, "model.name", "text")
    try:
        if name == "ou_lq":
            return builtin_ou_lq(
                a=_get(cfg, "model.params.a", "number"),
                sigma=_get(cfg, "model.params.sigma", "number"),
                q=_get(cfg, "model.params.q", "number", 0.0),
                c=_get(cfg, "model.params.c", "number", 0.0),
                u_max=_get(cfg, "model.params.u_max", "number", 0.0),
                n_controls=_get(cfg, "model.params.n_controls", "int>=1", 1),
            )
        if name == "w_network":
            return builtin_w_network(
                arrival_rates=_get(cfg, "model.params.arrival_rates", "numbers"),
                service_rates=_get(cfg, "model.params.service_rates", "matrix"),
                l_vec=_get(cfg, "model.params.l_vec", "numbers"),
                cost_weights=_get(cfg, "model.params.cost_weights", "numbers"),
                n_controls=_get(cfg, "model.params.n_controls", "int>=1", 1),
                region_delta=_get(cfg, "model.params.region_delta", "number", 0.2),
            )
        if name == "affine_quadratic":
            return _affine_quadratic_model(cfg)
    except ModelError as exc:
        raise ConfigError(f"model '{name}': {exc}") from exc
    raise ConfigError(f"unknown model name {name!r}")


def _affine_quadratic_model(cfg: dict) -> DiffusionModel:
    """Declarative custom model: affine drift, constant Sigma, quadratic cost."""
    dim = _get(cfg, "model.params.dim", "int>=1")
    A_lin = _get(cfg, "model.params.drift.linear", "matrix", np.zeros((dim, dim)))
    B = _get(cfg, "model.params.drift.control", "matrix", np.zeros((dim, 1)))
    const = np.asarray(_get(cfg, "model.params.drift.const", "numbers", np.zeros(dim)))
    Sigma = _get(cfg, "model.params.sigma", "matrix")
    Qxx = _get(cfg, "model.params.cost.xx", "matrix", np.zeros((dim, dim)))
    m = B.shape[1]
    Quu = _get(cfg, "model.params.cost.uu", "matrix", np.zeros((m, m)))
    c0 = _get(cfg, "model.params.cost.const", "number", 0.0)
    pts = _get(cfg, "model.params.controls.points", "matrix")
    controls = ControlSet(pts, description="config-declared points")

    def drift(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return const + x @ A_lin.T + np.broadcast_to(u, x.shape[:-1] + (m,)) @ B.T

    def cost(x, u):
        x = np.asarray(x, dtype=float)
        u = np.broadcast_to(np.asarray(u, dtype=float), x.shape[:-1] + (m,))
        return (
            0.5 * np.einsum("...i,ij,...j->...", x, Qxx, x)
            + 0.5 * np.einsum("...i,ij,...j->...", u, Quu, u)
            + c0
        )

    if float(np.min(np.linalg.eigvalsh(Sigma @ Sigma.T))) <= 0:
        raise ConfigError("declared sigma is degenerate")
    return DiffusionModel(
        dim=dim,
        drift=drift,
        sigma=lambda x: Sigma,
        cost=cost,
        controls=controls,
        region_K=RegionSpec.full_space(),
        name="affine_quadratic",
    )


def build_grid_from_cfg(cfg: dict) -> Grid:
    radii = _get(cfg, "grid.radii", "numbers")
    counts = _get(cfg, "grid.counts", "numbers")
    try:
        return build_grid(radii, counts)
    except ValueError as exc:
        raise ConfigError(f"grid block invalid: {exc}") from exc


def _setup(cfg: dict):
    """The model, the grid and the solver options of a grid command: tol,
    scheme and, when the config sets it, max_iter (else each solver keeps
    its own budget)."""
    model, grid = build_model(cfg), build_grid_from_cfg(cfg)
    opts = {
        "tol": _get(cfg, "solver.tol", "number", 1e-8),
        "scheme": _get(cfg, "solver.scheme", "text", "hybrid"),
    }
    max_iter = _get(cfg, "solver.max_iter", "int>=1", None)
    if max_iter is not None:
        opts["max_iter"] = max_iter
    return model, grid, opts


def _policy_from_cfg(cfg: dict, model: DiffusionModel, grid: Grid) -> MarkovPolicy:
    idx = _get(cfg, "policy.index", "int>=0", 0)
    if idx >= model.controls.n_controls:
        raise ConfigError(f"policy.index {idx} out of range")
    return MarkovPolicy.constant(idx, grid.n_nodes)


def _named_xu_function(cfg: dict, path: str):
    """The function of (x, u) that the mapping at ``path`` names."""
    name = _get(cfg, f"{path}.name", "text")
    if name == "one_plus_sq_norm":
        return lambda x, u: 1.0 + np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
    if name == "quadratic":
        coeff = _get(cfg, f"{path}.coeff", "number", 1.0)
        return lambda x, u: coeff * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
    if name == "const":
        val = _get(cfg, f"{path}.value", "number", 1.0)
        return lambda x, u: np.full(np.shape(np.asarray(x))[:-1], val)
    raise ConfigError(f"{path}.name: unknown function name {name!r}")


def _family_from_cfg(cfg: dict, model: DiffusionModel, grid: Grid):
    C3 = _get(cfg, "perturb.C3", "number", 0.5)
    hbar = _get(cfg, "perturb.hbar", "mapping", None)
    if _get(cfg, "perturb.h", "mapping", None) is not None:
        return family_from_h(model, _named_xu_function(cfg, "perturb.h"), C3, grid=grid)
    if hbar is not None:
        return build_h(model, grid, _named_xu_function(cfg, "perturb.hbar"), C3)
    raise ConfigError("perturb needs either an 'h' or an 'hbar' mapping")


def _sim_config(cfg: dict, model: DiffusionModel, seed) -> SimulationConfig:
    return SimulationConfig(
        dt=_get(cfg, "simulation.dt", "number"),
        horizon=_get(cfg, "simulation.horizon", "number"),
        n_paths=_get(cfg, "simulation.n_paths", "int>=1"),
        seed=seed,
        x0=_get(cfg, "simulation.x0", "numbers", [0.0] * model.dim),
        antithetic=_get(cfg, "simulation.antithetic", "bool", False),
        record_mem=_get(cfg, "simulation.record_mem", "bool", False),
        mem_stride=_get(cfg, "simulation.mem_stride", "int>=1", 10),
    )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _node_table(points, names, *columns):
    """A per-node table: the coordinates x0..x{d-1}, then one column per name."""
    points = np.asarray(points, dtype=float)
    header = [f"x{i}" for i in range(points.shape[1])] + list(names)
    return header, np.column_stack([points, *columns]).tolist()


# ---------------------------------------------------------------------------
# command implementations: each returns (results, {csv name: (header, rows)})
# ---------------------------------------------------------------------------


def _cmd_eigen(cfg, seed):
    model, grid, opts = _setup(cfg)
    policy = _policy_from_cfg(cfg, model, grid)
    pair = policy_value(model, grid, policy, **opts)
    results = {
        "value": pair.value,
        "cw_lower": pair.cw_lower,
        "cw_upper": pair.cw_upper,
        "iterations": pair.iterations,
    }
    return results, {"eigenvector.csv": _node_table(grid.coords(), ["psi"], pair.vector)}


def _cmd_hjb(cfg, seed):
    model, grid, opts = _setup(cfg)
    sol = solve_hjb(model, grid, **opts)
    ctrl = sol.policy.control_values(model.controls.points)
    names = ["V"] + [f"u{i}" for i in range(ctrl.shape[1])]
    results = {
        "value": sol.value,
        "residual": sol.residual,
        "iterations": len(sol.history),
        "history": list(sol.history),
        "evaluation": sol.evaluation,
        "greedy_steps": len(sol.history),
        "power_steps": sol.eigenpair.iterations if sol.evaluation != "howard" else 0,
    }
    return results, {"value_function.csv": _node_table(grid.coords(), names, sol.V, ctrl)}


def _cmd_game(cfg, seed):
    model, grid, opts = _setup(cfg)
    epsilon = _get(cfg, "game.epsilon", "number", 0.0)
    l = _get(cfg, "game.l", "number", 8.0)
    L_star = _get(cfg, "game.L_star", "number", None)
    l_list = _get(cfg, "sweep.l_list", "numbers", None)
    opts["family"] = _family_from_cfg(cfg, model, grid) if epsilon > 0.0 else None

    results, tables = {}, {}
    if l_list is not None:
        entries = [[l, v] for l, v in game_value_sweep(model, grid, epsilon, l_list, **opts)]
        results["game_entries"] = entries
        tables["rho_vs_l.csv"] = (["l", "rho"], entries)
        l = l_list[-1]
    if L_star is None:
        L_star = default_truncation_rule(l)
    sol = solve_ergodic_game(model, grid, epsilon, l, L_star, **opts)
    tables["game_bias.csv"] = _node_table(grid.coords(), ["Psi"], sol.bias)
    results.update(
        {
            "value": sol.value,
            "residual": sol.residual,
            "iterations": sol.iterations,
            "l": sol.l,
            "L_star": sol.L_star,
        }
    )
    return results, tables


def _cmd_sweep_eps(cfg, seed):
    model, grid, opts = _setup(cfg)
    fracs = _get(cfg, "sweep.eps_fracs", "numbers", None)
    eps_list = _get(cfg, "sweep.eps_list", "numbers", None)
    family = _family_from_cfg(cfg, model, grid)
    if fracs is not None:
        eps_list = [0.0] + [f * family.eps0 for f in fracs]
    elif eps_list is None:
        raise ConfigError("sweep needs 'eps_fracs' or 'eps_list'")
    elif 0.0 not in eps_list:
        eps_list = [0.0] + eps_list
    res = epsilon_sweep(model, grid, family, eps_list, **opts)
    entries = [[e, v] for e, v in res.entries]
    results = {
        "epsilon_entries": entries,
        "base_value": res.base_value,
        "gaps": res.gaps,
        "slope": res.slope,
    }
    return results, {"value_vs_epsilon.csv": (["epsilon", "lambda_sm"], entries)}


def _cmd_sweep_kappa(cfg, seed):
    model, grid, opts = _setup(cfg)
    res = kappa_sweep(model, grid, _get(cfg, "sweep.kappa", "numbers"), **opts)
    entries = [[k, v, v - res.lambda_zero] for (k, v) in res.entries]
    header = ["kappa", "lambda_kappa", "lambda_zero_gap"]
    results = {"kappa_entries": entries, "lambda_zero": res.lambda_zero}
    return results, {"value_vs_kappa.csv": (header, entries)}


def _cmd_simulate(cfg, seed):
    model = build_model(cfg)
    grid = build_grid_from_cfg(cfg) if "grid" in cfg else None
    sim_cfg = _sim_config(cfg, model, seed)
    L = _get(cfg, "simulation.truncation_L", "number", None)
    per_path = _get(cfg, "output.per_path", "bool", False)
    policy = None
    if model.controls.n_controls > 1:
        if grid is None:
            raise ConfigError("multi-control simulation needs a grid for the policy")
        policy = _policy_from_cfg(cfg, model, grid)
    ens = simulate(model, policy, sim_cfg, grid=grid)
    est = estimate_rsc_cost(ens, truncation_L=L)
    results = {
        "estimate": est.estimate,
        "stderr": est.stderr,
        "excluded_paths": ens.excluded,
        "digest": ens.digest(),
    }
    tables = {}
    if per_path:
        tables["paths.csv"] = _node_table(ens.terminal, ["cost_integral"], ens.cost_integral)
    if L is not None:
        results["truncated_estimate"] = est.truncated_estimate
        results["tail_mass"] = est.tail_mass
    if ens.mem_masses is not None:
        mem = mem_tightness_report(ens, [1.0, 2.0, 3.0, 4.0])
        entries = [[r, m] for r, m in zip(mem["radii"], mem["mass_beyond"])]
        results["mem_entries"] = entries
        results["mem_tight"] = mem["tight"]
        tables["mem_shells.csv"] = (["radius", "mass_beyond"], entries)
    return results, tables


def _cmd_verify_var(cfg, seed):
    n_spaces = _get(cfg, "verify.n_spaces", "int>=1", 1000)
    f_range = _get(cfg, "verify.f_range", "positive", 20.0)
    if not 2.0 * f_range < np.inf:
        raise ConfigError(f"verify.f_range: 2 * {f_range!r} exceeds the float range")
    rng = np.random.default_rng(seed)
    max_gap = 0.0
    ineq_ok = True
    for _ in range(n_spaces):
        m = int(rng.integers(2, 65))  # 2 to 64 atoms
        p = rng.dirichlet(np.ones(m))
        p = np.maximum(p, 1e-12)
        p /= p.sum()
        space = FiniteNoiseSpace(p)
        f = rng.uniform(-f_range, f_range, size=m)
        lhs, rhs, gap = gibbs_identity_check(space, f)
        max_gap = max(max_gap, gap)
        q = rng.dirichlet(np.ones(m))
        if q @ f - kl_divergence(q, p) > lhs + 1e-9:
            ineq_ok = False
    return {"n_spaces": n_spaces, "max_gap": max_gap, "inequality_ok": ineq_ok}, {}


def _cmd_check_assumptions(cfg, seed):
    model, grid = build_model(cfg), build_grid_from_cfg(cfg)
    if _get(cfg, "assumptions.lyap.type", "text") != "quadratic":
        raise ConfigError("assumptions.lyap.type must be 'quadratic'")
    lyap = QuadraticLyapLog(_get(cfg, "assumptions.lyap.Q", "matrix"))
    hbar = _named_xu_function(cfg, "assumptions.hbar")
    constants = _get(cfg, "assumptions.constants", "numbers")
    if len(constants) != 3:
        raise ConfigError("assumptions.constants must be [C1, C2, C3]")
    coords = grid.coords()
    stride = max(1, coords.shape[0] // _get(cfg, "assumptions.max_points", "int>=1", 2000))
    samples = [(x, u) for x in coords[::stride] for u in model.controls.points]
    report = check_assumptions(model, lyap, hbar, tuple(constants), samples)
    results = {
        "checked_points": report.checked_points,
        "n_violations": len(report.violations),
        "worst_slack": report.worst_slack,
        "ok": report.ok,
    }
    return results, {}


def _cmd_rep_check(cfg, seed):
    model, grid, opts = _setup(cfg)
    R = _get(cfg, "rep_check.R", "positive", 1.0)
    pts = _get(cfg, "rep_check.test_points", "matrix")
    sim_cfg = _sim_config(cfg, model, seed)
    sol = solve_hjb(model, grid, **opts)
    rows = check_stochastic_representation(
        model, sol.policy, sol.V, sol.value, R, pts, sim_cfg, grid, twist_log_psi=np.log(sol.V)
    )
    names = ["ratio", "stderr", "nonhit"]
    table = _node_table([r["point"] for r in rows], names, *([r[k] for r in rows] for k in names))
    return {"points": rows, "value": sol.value}, {"rep_check.csv": table}


_DISPATCH = {
    "eigen": _cmd_eigen,
    "hjb": _cmd_hjb,
    "game": _cmd_game,
    "sweep-eps": _cmd_sweep_eps,
    "sweep-kappa": _cmd_sweep_kappa,
    "simulate": _cmd_simulate,
    "verify-var": _cmd_verify_var,
    "check-assumptions": _cmd_check_assumptions,
    "rep-check": _cmd_rep_check,
}

COMMANDS = tuple(_DISPATCH)


def run(command: str, config_path, out_dir=None, seed=None) -> dict:
    """Execute one command; write report.json, the canonical config and its CSV tables.

    Returns the report.  Its seed is the one the command draws from: ``seed``
    when given, else ``verify.seed`` (default 0) for verify-var and
    ``simulation.seed`` (default 0 when a ``simulation`` block is present)
    for every other command.
    """
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    cfg = load_config(config_path)
    directory = _get(cfg, "output.directory", "text", ".")
    if command == "verify-var":
        cfg_seed = _get(cfg, "verify.seed", "int>=0", 0)
    else:
        cfg_seed = _get(cfg, "simulation.seed", "int>=0", 0) if "simulation" in cfg else None
    seed = cfg_seed if seed is None else seed
    out_dir = Path(out_dir or directory)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    results, tables = _DISPATCH[command](cfg, seed)
    wall = time.perf_counter() - t0

    report = {
        "command": command,
        "config_digest": canonical_digest(cfg),
        "results": _jsonable(results),
        "wall_time_s": wall,
        "version": __version__,
        "seed": seed,
    }
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    with open(out_dir / "config.canonical.yaml", "w") as fh:
        fh.write(canonical_dump(cfg))
    for name, (header, rows) in tables.items():
        write_csv(out_dir / name, header, rows)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ersc", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            print("ERROR:usage: invalid command line", file=sys.stderr)
            return 2
        return 0

    try:
        report = run(args.command, args.config, args.out, args.seed)
    except _SOLVER_ERRORS as exc:
        print(f"ERROR:solver: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, PerturbationError) as exc:
        print(f"ERROR:config: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"command": report["command"], "results": report["results"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
