"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crsphere

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(crsphere.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
