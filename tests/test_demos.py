"""Every demo script runs to completion and prints its pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crsphere

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout; the output does not depend on the hash seed.
STDOUT_SHA256 = {
    "01_exact_sphere_arithmetic":
        "15cbbcb7262befdf58f7bf33a1c8a79f39a215609c8f3dd6ddcdf1d37152ba59",
    "02_harmonic_spectrum":
        "00e469b4a2918c6685d5f00b349f8abc5a5fdcb0e3dc4ca5d7a4bd45f47e3747",
    "03_global_frame_calculus":
        "a881e07faa85384c7fb65222e59b7758f8f71c20dcbe27daf7446426bc539253",
    "04_second_variation_modes":
        "68de9323d8959f18d217090a1adec03aa5d1a9eff6c06256083b46fb6cab644f",
    "05_structure_equation_oracle":
        "e3dc0e837c134193e727b41f447d8420c9cd5e1b37b8b31780e5458e2fbb3b93",
}


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(crsphere.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
