"""Smoke tests for the shipped demos and configs.

Each demo is loaded under a non-main name, which runs its imports and module
set-up but stops at the ``__main__`` guard; each config has its model and grid
built through the command-line front end.  A demo importing a removed name,
or a config naming a removed option, fails here.
"""

import runpy
from pathlib import Path

import pytest

from ersc.cli import build_grid_from_cfg, build_model, load_config

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_loads(path):
    runpy.run_path(str(path), run_name="demo_smoke")


@pytest.mark.parametrize("path", sorted(DEMOS.glob("configs/*.yaml")), ids=lambda p: p.stem)
def test_config_builds(path):
    cfg = load_config(path)
    model = build_model(cfg)
    grid = build_grid_from_cfg(cfg)
    assert grid.dim == model.dim
