"""Each demo script runs to completion against the tree under test."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import tree_env

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
DEMOS = sorted(DEMO_DIR.glob("0*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=tree_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_tour_runs(tmp_path):
    # the tour calls `frs`; a shim on PATH runs the tree's package instead
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "frs"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m frstokes "$@"\n')
    shim.chmod(0o755)
    env = tree_env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    proc = subprocess.run(["sh", str(DEMO_DIR / "06_cli_tour.sh")], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "fitted_rate" in proc.stdout


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=tree_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the values its comments quote
    printed = dict(line.rsplit(maxsplit=1) for line in proc.stdout.splitlines()
                   if line.startswith(("mode amplitude", "kernel reference")))
    assert printed["mode amplitude"].startswith("0.00725369")
    assert printed["kernel reference"].startswith("0.00725436")
