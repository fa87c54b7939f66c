"""Every demo script runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))


def test_all_five_demos_are_collected():
    assert len(SCRIPTS) == 5


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(tmp_path, script):
    # from a copy of demos/ (configs included), so the demos that write
    # under demos/output/ leave the committed golden files alone
    demos = shutil.copytree(ROOT / "demos", tmp_path / "demos")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demos / script)], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
