"""The benchmark's traced replay calls the layers' public functions directly
(``coefficient_table(model, L, ABS_TOL, profile)``, ``build_T(model, L,
ABS_TOL, table)``, ``single_copy_E1(ln_alpha1=...)``, ...). Replaying each
workload at small sizes against the CLI keeps those signatures and the
replay's output in step with the program."""

import sys
from pathlib import Path

import pytest

from singlecopy.cli import run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_replay_prints_what_the_cli_prints(workload, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "L_MAX", 128)
    monkeypatch.setattr(workloads, "REPORT_L", 24)
    monkeypatch.setattr(workloads, "EP_DIMS", 64)
    for argv in workloads.cli_calls(workload, workloads.draw(1)):
        assert run(argv + ["--L-max", "128"] if argv[0] == "scan" else argv) == 0
        printed = capsys.readouterr().out
        assert workloads.replay(spans.NullTracer(), argv) == printed
