"""The package imports, scans, fits, analyzes and runs the finite-chain oracle
(``oracle --pair gaussian-vs-thermodynamic``) on numpy alone.

scipy is loaded only by ``analyze --with-ep`` (the HiGHS linear program) and
by the exact-diagonalization pair ``oracle --pair gaussian-vs-ed``, the
coefficient quadrature's thread pool and Gauss-Legendre rule only by a table
that takes quadrature, and ``numpy.fft`` only by a block long enough for the
Krylov route; no scan loads ``numpy.random``. Each check runs in a fresh
interpreter, since this test process has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY = ("scipy.linalg", "scipy.special", "scipy.sparse", "scipy.optimize")
QUADRATURE = ("concurrent.futures", "numpy.polynomial")
FFT_RANDOM = ("numpy.fft", "numpy.random")

# Runs each argv of argv 1 (a JSON list) through ``cli.run`` and prints, per
# call, its exit code and the modules of argv 2 (a JSON list of prefixes)
# loaded after it.
PROBE = """
import contextlib, io, json, sys
import singlecopy
from singlecopy.cli import run

watched = tuple(json.loads(sys.argv[2]))
loaded = lambda: sorted(m for m in sys.modules if m.startswith(watched))
print(json.dumps({"argv": "import singlecopy", "code": 0, "loaded": loaded()}))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    print(json.dumps({"argv": " ".join(argv), "code": code, "loaded": loaded()}))
"""


def probe(calls, modules=HEAVY):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(calls), json.dumps(modules)],
                          capture_output=True, text=True, env=env, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


MODELS = {
    "xx": ["--model", "xx", "--a", "2"],
    "ising": ["--model", "ising"],
    "xy": ["--model", "xy", "--a", "2", "--gamma", "0.5"],
}


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_import_scan_fit_analyze_load_no_scipy(model):
    grid = ["--L-min", "8", "--L-max", "32"]
    results = probe([["scan", *model, *grid], ["fit", *model, *grid],
                     ["analyze", *model, "--L", "24"],
                     ["oracle", *model, "--n", "40", "--L", "8",
                      "--pair", "gaussian-vs-thermodynamic"]])
    assert [r["code"] for r in results] == [0, 0, 0, 0, 0]
    assert [r for r in results if r["loaded"]] == []


def test_ep_and_oracle_load_scipy_when_they_run():
    xx = MODELS["xx"]
    results = probe([["analyze", *xx, "--L", "16", "--with-ep"],
                     ["oracle", *xx, "--n", "6", "--L", "3"]])
    assert [r["code"] for r in results] == [0, 0, 0]
    assert results[0]["loaded"] == []
    assert "scipy.optimize" in results[1]["loaded"]
    assert {"scipy.linalg", "scipy.sparse"} <= set(results[2]["loaded"])


# The quadrature's imports are deferred to the first table that takes it, so
# that import and every closed-form scan (xx, ising) pay none of their cost.
@pytest.mark.parametrize("model", [MODELS["xx"], MODELS["ising"]], ids=["xx", "ising"])
def test_closed_form_paths_load_no_quadrature_modules(model):
    grid = ["--L-min", "8", "--L-max", "32"]
    results = probe([["scan", *model, *grid], ["fit", *model, *grid],
                     ["analyze", *model, "--L", "24"]], QUADRATURE)
    assert [r["code"] for r in results] == [0, 0, 0, 0]
    assert [r for r in results if r["loaded"]] == []
    quadrature = probe([["analyze", *MODELS["xy"], "--L", "24"]], QUADRATURE)
    assert set(quadrature[1]["loaded"]) >= set(QUADRATURE)


# The Krylov route's FFT is deferred to the first block past the crossover, and its
# start block is a closed-form sequence, so no scan loads numpy.random.
def test_only_the_krylov_route_loads_numpy_fft_and_nothing_loads_numpy_random():
    short = ["--L-min", "8", "--L-max", "32"]
    long = ["--L-min", "512", "--L-max", "724"]
    results = probe([["scan", *MODELS["xx"], *short], ["analyze", *MODELS["ising"], "--L", "24"],
                     ["scan", *MODELS["xx"], *long], ["scan", *MODELS["ising"], *long]],
                    FFT_RANDOM)
    assert [r["code"] for r in results] == [0, 0, 0, 0, 0]
    assert [r["loaded"] for r in results[:3]] == [[], [], []]
    for r in results[3:]:
        assert "numpy.fft" in r["loaded"]
        assert not [m for m in r["loaded"] if m.startswith("numpy.random")]
