"""Smoke tests for the shipped demos and configs.

Each demo is loaded under a non-main name, which runs its imports and module
set-up but stops at the ``__main__`` guard; each config has its model and grid
built through the command-line front end.  A demo importing a removed name,
or a config naming a removed option, fails here.  So does a README command
line naming a removed command or config.
"""

import re
import runpy
from pathlib import Path

import pytest

from ersc.cli import COMMANDS, build_grid_from_cfg, build_model, load_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
README_COMMANDS = re.findall(
    r"^ersc ([a-z-]+) --config (\S+)", (ROOT / "README.md").read_text(), re.MULTILINE
)


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_loads(path):
    runpy.run_path(str(path), run_name="demo_smoke")


@pytest.mark.parametrize("path", sorted(DEMOS.glob("configs/*.yaml")), ids=lambda p: p.stem)
def test_config_builds(path):
    cfg = load_config(path)
    model = build_model(cfg)
    grid = build_grid_from_cfg(cfg)
    assert grid.dim == model.dim


def test_readme_lists_commands():
    assert len(README_COMMANDS) >= 4


@pytest.mark.parametrize("command, path", README_COMMANDS, ids=str)
def test_readme_command_line(command, path):
    assert command in COMMANDS
    cfg = load_config(ROOT / path)
    assert build_grid_from_cfg(cfg).dim == build_model(cfg).dim
