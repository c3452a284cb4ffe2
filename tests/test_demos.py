"""Every demo runs to the end.

The demos call the public API (demo 03 ``relation_value``, demo 04
``q_on_product``), so a change to it that a demo was not updated for fails
here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip()
