import json

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
    ],
    ids=["zero-C1", "decreasing-l-list", "negative-l", "x0-dim", "kappa-text", "no-lyap-Q"],
)
def test_invalid_config_exit_code(tmp_path, capsys, command, extra):
    path = write_cfg(tmp_path, extra, base=OU_61)
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ERROR:config:") and err.count("\n") == 1


class _Stop(Exception):
    pass


def test_solver_block_reaches_kappa_sweep_and_rep_check(tmp_path, monkeypatch):
    seen = {}

    def spy(name):
        def record(*args, **kwargs):
            seen[name] = kwargs
            raise _Stop

        return record

    monkeypatch.setattr(ersc.cli, "kappa_sweep", spy("kappa_sweep"))
    monkeypatch.setattr(ersc.cli, "solve_hjb", spy("solve_hjb"))
    solver = {"solver": {"tol": 1e-7, "max_iter": 37}}
    path = write_cfg(tmp_path, dict(solver, sweep={"kappa": [1.0]}), base=OU_61)
    with pytest.raises(_Stop):
        run("sweep-kappa", path, out_dir=tmp_path / "k")
    assert seen["kappa_sweep"]["tol"] == 1e-7
    extra = dict(solver, rep_check={"test_points": [[2.0]]}, simulation=SIMULATION)
    path = write_cfg(tmp_path, extra, name="rep.yaml", base=OU_61)
    with pytest.raises(_Stop):
        run("rep-check", path, out_dir=tmp_path / "r")
    assert seen["solve_hjb"]["tol"] == 1e-7
    assert seen["solve_hjb"]["max_iter"] == 37


def test_verify_var_report_records_its_seed(tmp_path):
    path = write_cfg(tmp_path, {"verify": {"n_spaces": 100, "seed": 0}})
    report = run("verify-var", path, out_dir=tmp_path / "out")
    assert report["seed"] == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["seed"] == 0
    assert run("verify-var", path, out_dir=tmp_path / "o2", seed=3)["seed"] == 3
