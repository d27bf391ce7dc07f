"""Smoke test: every experiment script runs to completion on small inputs."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["xx_scaling.py", "--L-min", "32", "--L-max", "128", "--fit-min", "32"],
    ["oracle_convergence.py", "--n", "40", "60"],
    ["saturation_vs_critical.py", "--L-min", "16", "--L-max", "64"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
