import ast
import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import ersc.cli
from ersc.cli import canonical_digest, load_config, main, run

OU_BLOCK = {
    "model": {
        "name": "ou_lq",
        "params": {"a": -1.0, "sigma": 1.0, "q": 0.75, "c": 0.0, "u_max": 0.0, "n_controls": 1},
    },
    "grid": {"radii": [6.0], "counts": [121]},
    "solver": {"tol": 1e-8, "max_iter": 60},
}


def write_cfg(tmp_path, extra=None, name="cfg.yaml", base=None):
    cfg = dict(base if base is not None else OU_BLOCK)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_eigen_command(tmp_path):
    path = write_cfg(tmp_path)
    report = run("eigen", path, out_dir=tmp_path / "out")
    assert abs(report["results"]["value"] - 0.25) <= 2e-3
    assert (tmp_path / "out" / "eigenvector.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()


def test_hjb_command_lq(tmp_path):
    cfg = {
        "model": {
            "name": "ou_lq",
            "params": {"a": -1.0, "sigma": 1.0, "q": 1.0, "c": 2.0, "u_max": 5.0, "n_controls": 51},
        },
        "grid": {"radii": [6.0], "counts": [121]},
        "solver": {"tol": 1e-8, "max_iter": 60},
    }
    path = write_cfg(tmp_path, base=cfg)
    report = run("hjb", path, out_dir=tmp_path / "out")
    assert abs(report["results"]["value"] - (2 - np.sqrt(2)) / 2) <= 1.5e-2
    header = (tmp_path / "out" / "value_function.csv").read_text().splitlines()[0]
    assert header.startswith("x0,V,u0")


def test_hjb_report_names_its_evaluation(tmp_path):
    # 3D grids take the LU-free path and count its greedy and power steps
    cfg = {"model": W_MODEL, "grid": {"radii": [4.0] * 3, "counts": [7] * 3}, "solver": {"tol": 1e-7}}
    run("hjb", write_cfg(tmp_path, base=cfg), out_dir=tmp_path / "w")
    res = json.loads((tmp_path / "w" / "report.json").read_text())["results"]
    assert res["evaluation"] == "modified_policy_iteration"
    assert res["greedy_steps"] == len(res["history"]) >= 1
    assert res["power_steps"] >= res["greedy_steps"]
    res = run("hjb", write_cfg(tmp_path, base=OU_61, name="ou.yaml"), out_dir=tmp_path / "o")["results"]
    assert (res["evaluation"], res["greedy_steps"], res["power_steps"]) == ("howard", len(res["history"]), 0)


def test_sweep_kappa_command(tmp_path):
    path = write_cfg(tmp_path, {"sweep": {"kappa": [1.0, 0.1]}})
    report = run("sweep-kappa", path, out_dir=tmp_path / "out")
    csv = (tmp_path / "out" / "value_vs_kappa.csv").read_text().splitlines()
    assert csv[0] == "kappa,lambda_kappa,lambda_zero_gap"
    assert len(csv) == 3
    assert abs(report["results"]["lambda_zero"] - 0.1875) <= 2e-3


def test_sweep_eps_command_and_budget_validation(tmp_path):
    path = write_cfg(
        tmp_path,
        {
            "perturb": {"C3": 0.5, "h": {"name": "one_plus_sq_norm"}},
            "sweep": {"eps_fracs": [0.05, 0.025]},
        },
    )
    report = run("sweep-eps", path, out_dir=tmp_path / "out")
    assert (tmp_path / "out" / "value_vs_epsilon.csv").read_text().splitlines()[0] == (
        "epsilon,lambda_sm"
    )
    assert len(report["results"]["gaps"]) == 2

    bad = write_cfg(
        tmp_path,
        {
            "perturb": {"C3": 0.5, "h": {"name": "one_plus_sq_norm"}},
            "sweep": {"eps_list": [0.9]},
        },
        name="bad.yaml",
    )
    rc = main(["sweep-eps", "--config", str(bad), "--out", str(tmp_path / "bad_out")])
    assert rc == 2


def test_budget_error_names_bound(tmp_path, capsys):
    bad = write_cfg(
        tmp_path,
        {
            "perturb": {"C3": 0.5, "h": {"name": "one_plus_sq_norm"}},
            "sweep": {"eps_list": [0.0625]},
        },
        name="bad2.yaml",
    )
    rc = main(["sweep-eps", "--config", str(bad), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("ERROR:config:")
    assert "(1 - C3)/8" in captured.err


def test_game_command(tmp_path):
    path = write_cfg(tmp_path, {"game": {"l": 8.0, "L_star": 26.0, "epsilon": 0.0}})
    report = run("game", path, out_dir=tmp_path / "out")
    assert abs(report["results"]["value"] - 0.25) <= 1e-2
    assert (tmp_path / "out" / "rho_vs_l.csv").exists() is False  # single game, no sweep series


def test_game_command_with_l_sweep(tmp_path):
    path = write_cfg(
        tmp_path, {"game": {"epsilon": 0.0}, "sweep": {"l_list": [2.0, 4.0, 8.0]}}
    )
    report = run("game", path, out_dir=tmp_path / "out")
    csv = (tmp_path / "out" / "rho_vs_l.csv").read_text().splitlines()
    assert csv[0] == "l,rho"
    assert len(csv) == 4
    rhos = [e[1] for e in report["results"]["game_entries"]]
    assert all(b >= a - 1e-6 for a, b in zip(rhos, rhos[1:]))


def test_simulate_command(tmp_path):
    path = write_cfg(
        tmp_path,
        {"simulation": {"dt": 0.01, "horizon": 2.0, "n_paths": 256, "seed": 5, "x0": [0.0]}},
    )
    report = run("simulate", path, out_dir=tmp_path / "out")
    assert np.isfinite(report["results"]["estimate"])
    assert report["results"]["excluded_paths"] == 0


def test_verify_var_command(tmp_path):
    path = write_cfg(tmp_path, {"verify": {"n_spaces": 100, "seed": 0}})
    report = run("verify-var", path, out_dir=tmp_path / "out")
    assert report["results"]["max_gap"] <= 1e-12
    assert report["results"]["inequality_ok"]
    assert main(["verify-var", "--config", str(path), "--out", str(tmp_path / "o2")]) == 0


def test_check_assumptions_command(tmp_path):
    path = write_cfg(
        tmp_path,
        {
            "assumptions": {
                "lyap": {"type": "quadratic", "Q": [[0.125]]},
                "hbar": {"name": "const", "value": 0.0},
                "constants": [1.0, 1.0, 0.5],
            }
        },
    )
    report = run("check-assumptions", path, out_dir=tmp_path / "out")
    assert report["results"]["ok"]
    assert report["results"]["n_violations"] == 0


def test_rep_check_command(tmp_path):
    path = write_cfg(
        tmp_path,
        {
            "rep_check": {"R": 1.0, "test_points": [[2.0]]},
            "simulation": {"dt": 2e-3, "horizon": 10.0, "n_paths": 800, "seed": 7, "x0": [0.0]},
        },
    )
    report = run("rep-check", path, out_dir=tmp_path / "out")
    pt = report["results"]["points"][0]
    assert abs(pt["ratio"] - 1.0) <= 0.1
    assert (tmp_path / "out" / "rep_check.csv").exists()


def test_affine_quadratic_custom_model(tmp_path):
    cfg = {
        "model": {
            "name": "affine_quadratic",
            "params": {
                "dim": 1,
                "drift": {"linear": [[-1.0]], "control": [[1.0]], "const": [0.0]},
                "sigma": [[1.0]],
                "cost": {"xx": [[0.75]], "uu": [[0.0]], "const": 0.0},
                "controls": {"points": [[0.0]]},
            },
        },
        "grid": {"radii": [6.0], "counts": [121]},
        "solver": {"tol": 1e-8, "max_iter": 40},
    }
    path = write_cfg(tmp_path, base=cfg)
    report = run("eigen", path, out_dir=tmp_path / "out")
    assert abs(report["results"]["value"] - 0.25) <= 2e-3


def test_unknown_command_and_model(tmp_path):
    path = write_cfg(tmp_path)
    assert main(["frobnicate", "--config", str(path)]) == 2
    bad = write_cfg(tmp_path, {"model": {"name": "nope"}}, name="m.yaml")
    assert main(["eigen", "--config", str(bad), "--out", str(tmp_path / "o3")]) == 2


def test_solver_failure_exit_code(tmp_path, capsys):
    cfg = {
        "model": {
            "name": "ou_lq",
            "params": {"a": -1.0, "sigma": 1.0, "q": 1.0, "c": 2.0, "u_max": 5.0, "n_controls": 51},
        },
        "grid": {"radii": [6.0], "counts": [121]},
        "solver": {"tol": 1e-12, "max_iter": 1},
    }
    path = write_cfg(tmp_path, base=cfg, name="hard.yaml")
    rc = main(["hjb", "--config", str(path), "--out", str(tmp_path / "o4")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("ERROR:solver:")


def test_eigen_tolerance_below_rounding_floor_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, {"solver": {"tol": 1e-16, "max_iter": 60}}, name="floor.yaml")
    rc = main(["eigen", "--config", str(path), "--out", str(tmp_path / "o5")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR:solver:") and "rounding floor" in err


def test_canonical_roundtrip_digest(tmp_path):
    path = write_cfg(tmp_path, {"simulation": {"dt": 0.01, "horizon": 1.0, "n_paths": 8, "seed": 1, "x0": [0.0]}})
    run("simulate", path, out_dir=tmp_path / "out")
    reparsed = load_config(tmp_path / "out" / "config.canonical.yaml")
    assert canonical_digest(reparsed) == canonical_digest(load_config(path))


def test_csv_determinism(tmp_path):
    path = write_cfg(
        tmp_path,
        {"simulation": {"dt": 0.01, "horizon": 1.0, "n_paths": 64, "seed": 2, "x0": [0.0]}},
    )
    run("simulate", path, out_dir=tmp_path / "a")
    run("simulate", path, out_dir=tmp_path / "b")
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["results"] == rb["results"]
    run("eigen", path, out_dir=tmp_path / "ea")
    run("eigen", path, out_dir=tmp_path / "eb")
    assert (tmp_path / "ea" / "eigenvector.csv").read_bytes() == (
        tmp_path / "eb" / "eigenvector.csv"
    ).read_bytes()


OU_61 = dict(OU_BLOCK, grid={"radii": [6.0], "counts": [61]})
ASSUMPTIONS = {
    "lyap": {"type": "quadratic", "Q": [[0.125]]},
    "hbar": {"name": "const", "value": 0.0},
    "constants": [1.0, 1.0, 0.5],
}
SIMULATION = {"dt": 0.01, "horizon": 0.1, "n_paths": 8, "seed": 0, "x0": [0.0]}


@pytest.mark.parametrize(
    "command, extra",
    [
        ("check-assumptions", {"assumptions": dict(ASSUMPTIONS, constants=[0, 1, 0.5])}),
        ("game", {"game": {"epsilon": 0.0}, "sweep": {"l_list": [4, 2]}}),
        ("game", {"game": {"epsilon": 0.0, "l": -1}}),
        ("simulate", {"simulation": dict(SIMULATION, x0=[0.0, 0.0])}),
        ("sweep-kappa", {"sweep": {"kappa": ["abc"]}}),
        ("check-assumptions", {"assumptions": dict(ASSUMPTIONS, lyap={"type": "quadratic"})}),
        ("simulate", {"simulation": dict(SIMULATION, truncation_L="abc")}),
        ("simulate", {"simulation": dict(SIMULATION, record_mem=True, mem_stride=0)}),
        ("eigen", {"grid": {"radii": [6.0, 6.0], "counts": [15, 15]}}),
        ("simulate", {"simulation": dict(SIMULATION, seed=-1)}),
        ("simulate", {"simulation": dict(SIMULATION, seed=1.5)}),
        ("simulate", {"simulation": dict(SIMULATION, seed=True)}),
        ("verify-var", {"verify": {"n_spaces": 10, "seed": 1.5}}),
        ("verify-var", {"verify": {"n_spaces": 10, "seed": True}}),
        ("verify-var", {"verify": {"n_spaces": 10, "seed": "1"}}),
        ("verify-var", {"verify": {"n_spaces": 10, "seed": -1}}),
        ("simulate", {"simulation": dict(SIMULATION, horizon=float("inf"))}),
        ("simulate", {"simulation": dict(SIMULATION, dt=float("nan"))}),
        ("simulate", {"simulation": dict(SIMULATION, n_paths=8.5)}),
        ("simulate", {"simulation": dict(SIMULATION, record_mem=True, mem_stride=2.5)}),
        ("verify-var", {"verify": {"n_spaces": 20.7}}),
        ("verify-var", {"verify": {"n_spaces": -5}}),
        ("check-assumptions", {"assumptions": dict(ASSUMPTIONS, max_points=0)}),
        ("eigen", {"solver": {"tol": 1e-8, "max_iter": 60.5}}),
        ("simulate", {"simulation": dict(SIMULATION, dt=1.0e-320, horizon=1.0e10)}),
        ("eigen", {"solver": {"scheme": "central"}}),
        ("eigen", {"solver": {"tol": float("nan")}}),
        ("eigen", {"solver": {"tol": float("inf")}}),
        ("hjb", {"solver": {"tol": -1.0}}),
        ("verify-var", {"verify": {"n_spaces": 10, "f_range": float("inf")}}),
        ("verify-var", {"verify": {"n_spaces": 10, "f_range": 0.0}}),
        ("rep-check", {"rep_check": {"R": -1.0, "test_points": [[2.0]]}, "simulation": SIMULATION}),
        ("verify-var", {"verify": {"n_spaces": 10, "f_range": 1.0e308}}),
    ],
    ids=[
        "zero-C1",
        "decreasing-l-list",
        "negative-l",
        "x0-dim",
        "kappa-text",
        "no-lyap-Q",
        "truncation-L-text",
        "mem-stride-zero",
        "dim-mismatch",
        "seed-negative",
        "seed-fraction",
        "seed-bool",
        "verify-seed-fraction",
        "verify-seed-bool",
        "verify-seed-text",
        "verify-seed-negative",
        "horizon-inf",
        "dt-nan",
        "n-paths-fraction",
        "mem-stride-fraction",
        "verify-n-spaces-fraction",
        "verify-n-spaces-negative",
        "max-points-zero",
        "max-iter-fraction",
        "steps-overflow",
        "scheme-central",
        "tol-nan",
        "tol-inf",
        "tol-negative",
        "f-range-inf",
        "f-range-zero",
        "rep-check-R-negative",
        "f-range-huge",
    ],
)
def test_invalid_config_exit_code(tmp_path, capsys, monkeypatch, command, extra):
    hjb_calls = []
    real = ersc.cli.solve_hjb
    monkeypatch.setattr(ersc.cli, "solve_hjb", lambda *a, **k: hjb_calls.append(1) or real(*a, **k))
    path = write_cfg(tmp_path, extra, base=OU_61)
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ERROR:config:") and err.count("\n") == 1
    # rep-check reads its keys before its HJB solve
    if command == "rep-check":
        assert not hjb_calls


def test_f_range_overflow_names_its_key(tmp_path, capsys):
    # 2 * 1e308 overflows the uniform draw's width
    path = write_cfg(tmp_path, {"verify": {"n_spaces": 10, "f_range": 1.0e308}}, base=OU_61)
    assert main(["verify-var", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("ERROR:config: verify.f_range")


class _Stop(Exception):
    pass


# the solver each command calls first; a spy on these proves that a config
# error was raised before any solve
SOLVERS = (
    "policy_value",
    "solve_hjb",
    "solve_ergodic_game",
    "game_value_sweep",
    "epsilon_sweep",
    "kappa_sweep",
    "simulate",
    "check_assumptions",
    "gibbs_identity_check",
)


@pytest.fixture
def solver_spy(monkeypatch):
    """Replace every solver in ``ersc.cli`` by a spy that records its keyword
    arguments and stops the command; returns the {name: kwargs} record."""
    seen = {}

    def spy(name):
        def record(*args, **kwargs):
            seen[name] = kwargs
            raise _Stop

        return record

    for name in SOLVERS:
        monkeypatch.setattr(ersc.cli, name, spy(name))
    return seen


PERTURB = {"C3": 0.5, "h": {"name": "one_plus_sq_norm"}}
GRID_COMMANDS = [
    ("eigen", {}, "policy_value"),
    ("hjb", {}, "solve_hjb"),
    ("game", {"game": {"l": 4.0}}, "solve_ergodic_game"),
    ("game", {"sweep": {"l_list": [2.0, 4.0]}}, "game_value_sweep"),
    ("sweep-eps", {"perturb": PERTURB, "sweep": {"eps_fracs": [0.05]}}, "epsilon_sweep"),
    ("sweep-kappa", {"sweep": {"kappa": [1.0]}}, "kappa_sweep"),
    ("rep-check", {"rep_check": {"test_points": [[2.0]]}, "simulation": SIMULATION}, "solve_hjb"),
]


def test_solver_block_reaches_kappa_sweep_and_rep_check(tmp_path, solver_spy):
    # every grid command hands tol, scheme and max_iter to its first solver;
    # without solver.max_iter it passes none, so the solver keeps its own budget
    for k, (command, extra, solver) in enumerate(GRID_COMMANDS):
        solver_spy.clear()
        block = {"solver": {"tol": 1e-7, "max_iter": 37, "scheme": "upwind"}}
        path = write_cfg(tmp_path, dict(extra, **block), name=f"{k}.yaml", base=OU_61)
        with pytest.raises(_Stop):
            run(command, path, out_dir=tmp_path / "o")
        assert solver_spy[solver]["tol"] == 1e-7
        assert solver_spy[solver]["max_iter"] == 37
        assert solver_spy[solver]["scheme"] == "upwind"
        path = write_cfg(tmp_path, dict(extra, solver={}), name=f"{k}d.yaml", base=OU_61)
        with pytest.raises(_Stop):
            run(command, path, out_dir=tmp_path / "o")
        assert "max_iter" not in solver_spy[solver]


@pytest.mark.parametrize("command, extra", [("eigen", {}), ("sweep-kappa", {"sweep": {"kappa": [1.0]}})])
def test_max_iter_one_exhausts_the_budget(tmp_path, capsys, command, extra):
    path = write_cfg(tmp_path, dict(extra, solver={"max_iter": 1}), base=OU_61)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("ERROR:solver:")


def test_simulate_per_path_table(tmp_path):
    path = write_cfg(tmp_path, {"simulation": SIMULATION, "output": {"per_path": True}}, base=OU_61)
    report = run("simulate", path, out_dir=tmp_path / "out")
    rows = (tmp_path / "out" / "paths.csv").read_text().splitlines()
    assert rows[0] == "x0,cost_integral"
    assert len(rows) == 1 + SIMULATION["n_paths"]
    assert np.isfinite(report["results"]["estimate"])


NAN = float("nan")


@pytest.mark.parametrize(
    "command, extra, key",
    [
        ("eigen", {"solver": [1]}, "solver"),
        ("eigen", {"grid": None}, "grid"),
        ("sweep-kappa", {"sweep": {"kappa": 0.5}}, "sweep.kappa"),
        (
            "rep-check",
            {"rep_check": {"test_points": 2.0}, "simulation": SIMULATION},
            "rep_check.test_points",
        ),
        (
            "sweep-eps",
            {"perturb": {"h": "one_plus_sq_norm"}, "sweep": {"eps_fracs": [0.05]}},
            "perturb.h",
        ),
        ("eigen", {"model": {"name": "ou_lq", "params": {"a": -1.0, "sigma": NAN}}}, "sigma"),
        ("simulate", {"simulation": dict(SIMULATION, antithetic="false")}, "antithetic"),
        ("simulate", {"simulation": SIMULATION, "output": {"per_path": "no"}}, "per_path"),
        ("eigen", {"grid": {"radii": [6.0], "counts": [61.5]}}, "counts"),
        ("eigen", {"grid": {"radii": [NAN], "counts": [61]}}, "radii"),
        ("game", {"game": {"l": NAN}}, "game.l"),
        ("game", {"game": {"l": 4.0, "L_star": NAN}}, "game.L_star"),
        ("game", {"game": {"L_star": NAN}, "sweep": {"l_list": [2.0, 4.0]}}, "game.L_star"),
    ],
    ids=[
        "solver-list",
        "grid-null",
        "kappa-scalar",
        "test-points-scalar",
        "perturb-h-text",
        "sigma-nan",
        "antithetic-text",
        "per-path-text",
        "counts-fraction",
        "radii-nan",
        "game-l-nan",
        "L-star-nan",
        "L-star-nan-after-l-sweep",
    ],
)
def test_malformed_config_exits_2_before_any_solve(tmp_path, capsys, solver_spy, command, extra, key):
    # a malformed block or value, a flag given as text, a non-integral count and
    # a NaN anywhere are config errors, found before the first solve
    path = write_cfg(tmp_path, extra, base=OU_61)
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2 and not solver_spy
    assert err.startswith("ERROR:config:") and err.count("\n") == 1 and key in err


# base configs that together read every key; each reaches its first solver
W_MODEL = {
    "name": "w_network",
    "params": {
        "arrival_rates": [1.0, 1.0, 1.0],
        "service_rates": [[1.0, 0.0], [1.0, 2.0], [0.0, 1.5]],
        "l_vec": [-0.5, -0.5, -0.5],
        "cost_weights": [1.0, 2.0, 3.0],
        "n_controls": 1,
        "region_delta": 0.2,
    },
}
AFFINE_MODEL = {
    "name": "affine_quadratic",
    "params": {
        "dim": 1,
        "drift": {"linear": [[-1.0]], "control": [[1.0]], "const": [0.0]},
        "sigma": [[1.0]],
        "cost": {"xx": [[0.75]], "uu": [[0.0]], "const": 0.0},
        "controls": {"points": [[0.0]]},
    },
}
LQ_3 = {"name": "ou_lq", "params": {"a": -1.0, "sigma": 1.0, "q": 1.0, "c": 1.0, "u_max": 1.0, "n_controls": 3}}
FULL_SIMULATION = dict(SIMULATION, antithetic=True, record_mem=True, mem_stride=2, truncation_L=1.5)
KEY_BASES = [
    ("eigen", dict(OU_61, policy={"index": 0}, output={"directory": "."})),
    ("eigen", {"model": W_MODEL, "grid": {"radii": [4.0] * 3, "counts": [5] * 3}}),
    ("eigen", dict(OU_61, model=AFFINE_MODEL)),
    ("hjb", OU_61),
    (
        "game",
        dict(
            OU_61,
            game={"epsilon": 0.01, "l": 4.0, "L_star": 20.0},
            perturb={"C3": 0.5, "h": {"name": "quadratic", "coeff": 1.0}},
            sweep={"l_list": [2.0, 4.0]},
        ),
    ),
    (
        "sweep-eps",
        dict(
            OU_61,
            perturb={"C3": 0.5, "hbar": {"name": "const", "value": 1.0}},
            sweep={"eps_fracs": [0.05], "eps_list": [0.01]},
        ),
    ),
    ("sweep-kappa", dict(OU_61, sweep={"kappa": [1.0]})),
    ("simulate", dict(OU_61, model=LQ_3, simulation=FULL_SIMULATION, output={"per_path": True})),
    ("verify-var", {"verify": {"n_spaces": 2, "f_range": 1.0, "seed": 0}}),
    ("check-assumptions", dict(OU_61, assumptions=dict(ASSUMPTIONS, max_points=100))),
    ("rep-check", dict(OU_61, rep_check={"R": 1.0, "test_points": [[2.0]]}, simulation=SIMULATION)),
]
FUNCTION_SPECS = r"^(perturb\.h|perturb\.hbar|assumptions\.hbar)\."


def _malformed(kind):
    """Values that a key of ``kind`` must reject: non-finite, wrong type, out of range."""
    if kind.startswith("int>="):
        low = int(kind[5:])
        return [NAN, float("inf"), low + 0.5, True, "text", low - 1, [low]]
    inf = float("inf")
    return {
        "number": [NAN, inf, -inf, True, "text", [1.0]],
        "positive": [NAN, inf, -inf, 0.0, -1.0, True, "text"],
        "numbers": [[NAN], [inf], [-inf], 1.0, [True], ["text"], [], [[1.0]]],
        "matrix": [[[NAN]], [[inf]], 1.0, [1.0], [[True]], "text", [], [[1.0], [1.0, 2.0]]],
        "bool": ["false", "no", 1, 0.0],
        "mapping": [[1.0], 1.0, "text"],
        "text": [1.0, True, [1.0]],
    }[kind]


def _set(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    *blocks, key = path.split(".")
    node = cfg
    for block in blocks:
        node = node.setdefault(block, {})
    node[key] = value
    return cfg


def _key_reads(tmp_path, monkeypatch):
    """(command, base, path, kind) for the first base that reads each (path, kind)."""
    reads, real = [], ersc.cli._get

    def recording(cfg, path, kind, *default):
        reads.append((path, kind))
        return real(cfg, path, kind, *default)

    monkeypatch.setattr(ersc.cli, "_get", recording)
    found = {}
    for command, base in KEY_BASES:
        reads.clear()
        with pytest.raises(_Stop):
            run(command, write_cfg(tmp_path, base=base), out_dir=tmp_path / "o")
        for path, kind in reads:
            found.setdefault((path, kind), (command, base))
    monkeypatch.setattr(ersc.cli, "_get", real)
    return [(command, base, path, kind) for (path, kind), (command, base) in found.items()]


def test_every_key_rejects_malformed_values(tmp_path, capsys, monkeypatch, solver_spy):
    # every key, each with every malformed value of its kind and every block on
    # its path replaced by a list: exit 2, one line naming it, and no solve
    reads = _key_reads(tmp_path, monkeypatch)
    assert {re.sub(FUNCTION_SPECS, "<f>.", p) for _, _, p, _ in reads} == set(README_KEYS)
    cases = {}
    for command, base, path, kind in reads:
        for value in _malformed(kind):
            cases[command, path, f"{value!r} ({kind})"] = (base, path, value)
        keys = path.split(".")
        for depth in range(1, len(keys)):
            block = ".".join(keys[:depth])
            cases.setdefault((command, block, "list"), (base, block, [1.0]))
    failures = []
    for (command, named, value), (base, path, bad) in cases.items():
        solver_spy.clear()
        cfg_path = write_cfg(tmp_path, base=_set(base, path, bad))
        rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        ok = err.startswith("ERROR:config:") and err.count("\n") == 1 and named in err
        if rc != 2 or solver_spy or not ok:
            failures.append(f"{command} {named}={value}: exit {rc}, {err.strip()!r}")
    assert len(cases) > 400
    assert not failures, "\n".join(failures[:20])


README_TABLE = (Path(__file__).resolve().parent.parent / "README.md").read_text().split(
    "### Config keys"
)[1]
README_KEYS = re.findall(r"^\| `([^`]+)` \|", README_TABLE, re.MULTILINE)


def test_readme_key_table_matches_reader():
    # the README table lists each path passed to _get once; an f-string path
    # reads as the function spec <f>.  Its row count is the knob count.
    paths = set()
    for node in ast.walk(ast.parse(Path(ersc.cli.__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_get":
            arg = node.args[1]
            if isinstance(arg, ast.JoinedStr):
                paths.add("".join(v.value if isinstance(v, ast.Constant) else "<f>" for v in arg.values))
            else:
                paths.add(arg.value)
    assert len(README_KEYS) == len(set(README_KEYS))
    assert set(README_KEYS) == paths
    stated = re.search(r"The table has (\d+) keys", README_TABLE)
    assert int(stated.group(1)) == len(README_KEYS) == 59


def test_verify_var_report_records_its_seed(tmp_path):
    path = write_cfg(tmp_path, {"verify": {"n_spaces": 100, "seed": 0}})
    report = run("verify-var", path, out_dir=tmp_path / "out")
    assert report["seed"] == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["seed"] == 0
    assert run("verify-var", path, out_dir=tmp_path / "o2", seed=3)["seed"] == 3


def test_integral_floats_read_as_ints(tmp_path):
    # 7.0 reads as 7; only a fraction is an error
    path = write_cfg(tmp_path, {"verify": {"n_spaces": 20, "seed": 7.0}})
    as_float = run("verify-var", path, out_dir=tmp_path / "vf")["results"]
    assert as_float == run("verify-var", path, out_dir=tmp_path / "vi", seed=7)["results"]
    sim = dict(SIMULATION, n_paths=8.0, seed=3.0, record_mem=True, mem_stride=2.0)
    path = write_cfg(tmp_path, {"simulation": sim}, base=OU_61)
    whole = run("simulate", path, out_dir=tmp_path / "sf")["results"]["digest"]
    sim = dict(SIMULATION, n_paths=8, seed=3, record_mem=True, mem_stride=2)
    path = write_cfg(tmp_path, {"simulation": sim}, base=OU_61)
    assert whole == run("simulate", path, out_dir=tmp_path / "si")["results"]["digest"]


def test_simulation_without_seed_reports_seed_zero(tmp_path):
    path = write_cfg(
        tmp_path, {"simulation": {"dt": 0.01, "horizon": 0.5, "n_paths": 32, "x0": [0.0]}}
    )
    report = run("simulate", path, out_dir=tmp_path / "out")
    assert report["seed"] == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["seed"] == 0
    seeded = run("simulate", path, out_dir=tmp_path / "s0", seed=0)
    assert report["results"]["digest"] == seeded["results"]["digest"]
