"""Command-line front end: config parsing, orchestration, report emission.

Usage:
    ersc <command> --config <path> [--out <dir>] [--seed S]

Commands: eigen, hjb, game, sweep-eps, sweep-kappa, simulate, verify-var,
check-assumptions, rep-check.  Configs are YAML with nested blocks (model,
grid, solver, sweep, perturb, simulation, output, ...); experiments are
archival artifacts, so everything except the command name and paths lives in
the config.

Each command is one entry of a dispatch table: a function of the config and
the seed that returns ``(results, tables)``.  ``results`` becomes the
"results" block of report.json; ``tables`` maps a CSV file name to
``(header, rows)``.  ``run`` is the only writer: report.json (with the config
digest, stable under canonical re-emission), config.canonical.yaml and every
table through one CSV writer (header row, comma separated, '.' decimal).

Exit status: 0 success, 2 invalid command line or config (any ValueError or
PerturbationError, which the library raises on invalid inputs), 3 solver
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


def _need(cfg: dict, key: str, context: str = "config") -> dict:
    if key not in cfg:
        raise ConfigError(f"{context} is missing the '{key}' block")
    return cfg[key]


def build_model(cfg: dict) -> DiffusionModel:
    block = _need(cfg, "model")
    name = block.get("name")
    params = block.get("params", {})
    try:
        if name == "ou_lq":
            return builtin_ou_lq(
                a=float(params["a"]),
                sigma=float(params["sigma"]),
                q=float(params.get("q", 0.0)),
                c=float(params.get("c", 0.0)),
                u_max=float(params.get("u_max", 0.0)),
                n_controls=int(params.get("n_controls", 1)),
            )
        if name == "w_network":
            return builtin_w_network(
                arrival_rates=params["arrival_rates"],
                service_rates=np.asarray(params["service_rates"], dtype=float),
                l_vec=params["l_vec"],
                cost_weights=params["cost_weights"],
                n_controls=int(params.get("n_controls", 1)),
                idle_weights=params.get("idle_weights"),
                region_delta=float(params.get("region_delta", 0.2)),
            )
        if name == "affine_quadratic":
            return _affine_quadratic_model(params)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"model '{name}' has malformed parameters: {exc}") from exc
    except ModelError as exc:
        raise ConfigError(f"model '{name}': {exc}") from exc
    raise ConfigError(f"unknown model name {name!r}")


def _affine_quadratic_model(params: dict) -> DiffusionModel:
    """Declarative custom model: affine drift, constant Sigma, quadratic cost."""
    dim = int(params["dim"])
    dr = params.get("drift", {})
    A_lin = np.asarray(dr.get("linear", np.zeros((dim, dim))), dtype=float)
    B = np.asarray(dr.get("control", np.zeros((dim, 1))), dtype=float)
    const = np.asarray(dr.get("const", np.zeros(dim)), dtype=float)
    Sigma = np.asarray(params["sigma"], dtype=float)
    cb = params.get("cost", {})
    Qxx = np.asarray(cb.get("xx", np.zeros((dim, dim))), dtype=float)
    m = B.shape[1]
    Quu = np.asarray(cb.get("uu", np.zeros((m, m))), dtype=float)
    c0 = float(cb.get("const", 0.0))
    pts = np.asarray(params["controls"]["points"], dtype=float)
    controls = ControlSet(np.atleast_2d(pts), description="config-declared points")

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

    floor = float(np.min(np.linalg.eigvalsh(Sigma @ Sigma.T)))
    if floor <= 0:
        raise ConfigError("declared sigma is degenerate")
    return DiffusionModel(
        dim=dim,
        drift=drift,
        sigma=lambda x: Sigma,
        cost=cost,
        controls=controls,
        region_K=RegionSpec.full_space(),
        nondeg_floor=floor,
        name="affine_quadratic",
    )


def build_grid_from_cfg(cfg: dict) -> Grid:
    block = _need(cfg, "grid")
    try:
        return build_grid(block["radii"], block["counts"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"grid block invalid: {exc}") from exc


def _setup(cfg: dict):
    """The model, the grid and the solver options (tol, max_iter, scheme) of a grid command."""
    model, grid = build_model(cfg), build_grid_from_cfg(cfg)
    block = cfg.get("solver", {})
    opts = {
        "tol": float(block.get("tol", 1e-8)),
        "max_iter": int(block.get("max_iter", 100)),
        "scheme": block.get("scheme", "hybrid"),
    }
    return model, grid, opts


def _policy_from_cfg(cfg: dict, model: DiffusionModel, grid: Grid) -> MarkovPolicy:
    block = cfg.get("policy", {"type": "constant", "index": 0})
    kind = block.get("type", "constant")
    if kind == "constant":
        idx = int(block.get("index", 0))
        if not (0 <= idx < model.controls.n_controls):
            raise ConfigError(f"policy index {idx} out of range")
        return MarkovPolicy.constant(idx, grid.n_nodes)
    raise ConfigError(f"unknown policy type {kind!r}")


def _named_xu_function(spec: dict):
    name = spec.get("name")
    if name == "one_plus_sq_norm":
        return lambda x, u: 1.0 + np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
    if name == "quadratic":
        coeff = float(spec.get("coeff", 1.0))
        return lambda x, u: coeff * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
    if name == "const":
        val = float(spec.get("value", 1.0))
        return lambda x, u: np.full(np.shape(np.asarray(x))[:-1], val)
    raise ConfigError(f"unknown function name {name!r}")


def _family_from_cfg(cfg: dict, model: DiffusionModel, grid: Grid):
    block = _need(cfg, "perturb")
    C3 = float(block.get("C3", 0.5))
    if "h" in block:
        return family_from_h(model, _named_xu_function(block["h"]), C3, grid=grid)
    if "hbar" in block:
        hbar = _named_xu_function(block["hbar"])
        return build_h(model, grid, hbar, C3, collar_width=float(block.get("collar_width", 1.0)))
    raise ConfigError("perturb block needs either 'h' or 'hbar'")


def _sim_config(cfg: dict, model: DiffusionModel, seed) -> SimulationConfig:
    block = _need(cfg, "simulation")
    try:
        return SimulationConfig(
            dt=float(block["dt"]),
            horizon=float(block["horizon"]),
            n_paths=int(block["n_paths"]),
            seed=int(block.get("seed", 0) if seed is None else seed),
            x0=block.get("x0", [0.0] * model.dim),
            antithetic=bool(block.get("antithetic", False)),
            record_mem=bool(block.get("record_mem", False)),
            mem_stride=int(block.get("mem_stride", 10)),
            target_radius=block.get("target_radius"),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"simulation block invalid: {exc}") from exc


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
    pair = policy_value(model, grid, policy, tol=opts["tol"], scheme=opts["scheme"])
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
    }
    return results, {"value_function.csv": _node_table(grid.coords(), names, sol.V, ctrl)}


def _cmd_game(cfg, seed):
    model, grid, opts = _setup(cfg)
    block = cfg.get("game", {})
    epsilon = float(block.get("epsilon", 0.0))
    family = _family_from_cfg(cfg, model, grid) if epsilon > 0.0 else None
    solve = {"tol": opts["tol"], "family": family, "scheme": opts["scheme"]}

    results, tables = {}, {}
    l_list = cfg.get("sweep", {}).get("l_list")
    if l_list:
        l_list = [float(l) for l in l_list]
        entries = [[l, v] for l, v in game_value_sweep(model, grid, epsilon, l_list, **solve)]
        results["game_entries"] = entries
        tables["rho_vs_l.csv"] = (["l", "rho"], entries)
        l = l_list[-1]
    else:
        l = float(block.get("l", 8.0))

    L_star = float(block.get("L_star", default_truncation_rule(l)))
    sol = solve_ergodic_game(model, grid, epsilon, l, L_star, **solve)
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
    family = _family_from_cfg(cfg, model, grid)
    sweep = cfg.get("sweep", {})
    if "eps_fracs" in sweep:
        eps_list = [0.0] + [float(f) * family.eps0 for f in sweep["eps_fracs"]]
    elif "eps_list" in sweep:
        eps_list = [float(e) for e in sweep["eps_list"]]
        if 0.0 not in eps_list:
            eps_list = [0.0] + eps_list
    else:
        raise ConfigError("sweep block needs 'eps_fracs' or 'eps_list'")
    res = epsilon_sweep(model, grid, family, eps_list, tol=opts["tol"], scheme=opts["scheme"])
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
    kappas = cfg.get("sweep", {}).get("kappa")
    if not kappas:
        raise ConfigError("sweep block needs a 'kappa' list")
    res = kappa_sweep(model, grid, kappas, tol=opts["tol"], scheme=opts["scheme"])
    entries = [[k, v, v - res.lambda_zero] for (k, v) in res.entries]
    header = ["kappa", "lambda_kappa", "lambda_zero_gap"]
    results = {"kappa_entries": entries, "lambda_zero": res.lambda_zero}
    return results, {"value_vs_kappa.csv": (header, entries)}


def _cmd_simulate(cfg, seed):
    model = build_model(cfg)
    grid = build_grid_from_cfg(cfg) if "grid" in cfg else None
    sim_cfg = _sim_config(cfg, model, seed)
    policy = None
    if model.controls.n_controls > 1:
        if grid is None:
            raise ConfigError("multi-control simulation needs a grid for the policy")
        policy = _policy_from_cfg(cfg, model, grid)
    ens = simulate(model, policy, sim_cfg, grid=grid)
    L = cfg.get("simulation", {}).get("truncation_L")
    est = estimate_rsc_cost(ens, truncation_L=L)
    results = {
        "estimate": est.estimate,
        "stderr": est.stderr,
        "excluded_paths": ens.excluded,
        "digest": ens.digest(),
    }
    tables = {}
    if cfg.get("output", {}).get("per_path", False):
        tables["paths.csv"] = _node_table(ens.terminal, ["cost_integral"], ens.cost_integral)
    if L is not None:
        results["truncated_estimate"] = est.truncated_estimate
        results["tail_mass"] = est.tail_mass
    if ens.mem_masses is not None:
        radii = cfg.get("simulation", {}).get("mem_radii", [1.0, 2.0, 3.0, 4.0])
        mem = mem_tightness_report(ens, radii)
        entries = [[r, m] for r, m in zip(mem["radii"], mem["mass_beyond"])]
        results["mem_entries"] = entries
        results["mem_tight"] = mem["tight"]
        tables["mem_shells.csv"] = (["radius", "mass_beyond"], entries)
    return results, tables


def _cmd_verify_var(cfg, seed):
    block = cfg.get("verify", {})
    n_spaces = int(block.get("n_spaces", 1000))
    max_atoms = int(block.get("max_atoms", 64))
    f_range = float(block.get("f_range", 20.0))
    rng = np.random.default_rng(int(seed))
    max_gap = 0.0
    ineq_ok = True
    for _ in range(n_spaces):
        m = int(rng.integers(2, max_atoms + 1))
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
    block = _need(cfg, "assumptions")
    lyap_spec = block.get("lyap", {})
    if lyap_spec.get("type") != "quadratic":
        raise ConfigError("assumptions.lyap.type must be 'quadratic'")
    Q = np.asarray(_need(lyap_spec, "Q", "assumptions.lyap"), dtype=float)
    lyap = QuadraticLyapLog(Q, const=float(lyap_spec.get("const", 0.0)))
    hbar = _named_xu_function(_need(block, "hbar", "assumptions"))
    constants = tuple(float(c) for c in _need(block, "constants", "assumptions"))
    if len(constants) != 3:
        raise ConfigError("assumptions.constants must be [C1, C2, C3]")
    coords = grid.coords()
    stride = max(1, coords.shape[0] // int(block.get("max_points", 2000)))
    samples = [(x, u) for x in coords[::stride] for u in model.controls.points]
    report = check_assumptions(model, lyap, hbar, constants, samples)
    results = {
        "checked_points": report.checked_points,
        "n_violations": len(report.violations),
        "worst_slack": report.worst_slack,
        "ok": report.ok,
    }
    return results, {}


def _cmd_rep_check(cfg, seed):
    model, grid, opts = _setup(cfg)
    block = _need(cfg, "rep_check")
    R = float(block.get("R", 1.0))
    pts = block.get("test_points")
    if not pts:
        raise ConfigError("rep_check.test_points required")
    sim_cfg = _sim_config(cfg, model, seed)
    sol = solve_hjb(model, grid, **opts)
    twist = np.log(sol.V) if block.get("twist", True) else None
    rows = check_stochastic_representation(
        model, sol.policy, sol.V, sol.value, R, pts, sim_cfg, grid, twist_log_psi=twist
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
    ``simulation.seed`` for every other command.
    """
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    cfg = load_config(config_path)
    out_dir = Path(out_dir or cfg.get("output", {}).get("directory", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    if seed is None:
        if command == "verify-var":
            seed = cfg.get("verify", {}).get("seed", 0)
        else:
            seed = cfg.get("simulation", {}).get("seed")

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
    except (ValueError, PerturbationError) as exc:
        print(f"ERROR:config: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"command": report["command"], "results": report["results"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
