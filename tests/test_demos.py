"""Each demo script runs to completion against the tree under test."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import tree_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=tree_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
