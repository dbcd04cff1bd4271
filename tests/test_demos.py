"""The narrative scripts in demos/ run to completion.

Each script runs in a fresh process with ``PYTHONPATH=src``, as the README
shows them, and must exit 0 without writing to stderr.  Their stdout is
not compared: demo 07 prints wall times.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [p.name[:3] for p in DEMOS] == [f"{i:02d}_" for i in range(1, 8)]


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_cleanly(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
