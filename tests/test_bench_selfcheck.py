"""The benchmark's self-check runs in the tier-1 suite.

``bench/selfcheck.py`` wraps public functions and methods of the package
from outside it; a refactor that moves or deletes one of them breaks the
benchmark, and this test makes that show up here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck: ok" in proc.stdout
