import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from singlecopy import __version__
from singlecopy.cli import run
from singlecopy.model import build_model
from singlecopy.entangle import EntanglementReport, report
from singlecopy.oracle import OracleComparison, compare_oracle
from singlecopy.toeplitz import coefficient_table
from singlecopy.asymptotics import (SCAN_FIELDS, ScalingFit, ScanRow, ScanSeries, fit_log,
                                    geometric_grid, scan)
from singlecopy.serialize import (
    comparison_to_dict,
    dumps,
    from_dict,
    report_to_dict,
    scan_from_dict,
    scan_to_csv,
    scan_to_dict,
    to_dict,
)


def run_cli(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(args):
    """``python -m singlecopy.cli args`` in a subprocess that imports this checkout's ``src``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "singlecopy.cli", *args],
                          capture_output=True, text=True, env=env)


def test_analyze_json_schema(capsys):
    code, out, _ = run_cli(
        ["analyze", "--model", "xy", "--a", "1", "--gamma", "1", "--L", "16"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"model", "L", "alpha1", "E1_bits", "e1_cont_bits",
                            "entropy_bits", "diagnostics", "version"}
    assert payload["version"] == __version__
    assert payload["model"]["label"] == "xy"
    assert payload["L"] == 16
    assert payload["e1_cont_bits"] > 0


def test_analyze_custom_product_state(capsys):
    code, out, _ = run_cli(["analyze", "--model", "custom", "--A", "1", "--L", "8"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["E1_bits"] == 0


def test_analyze_with_ep_and_sectors(capsys):
    code, out, _ = run_cli(
        ["analyze", "--model", "xx", "--a", "2", "--L", "6", "--with-ep", "--with-sectors"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert "Ep_bits" in payload and "sectors" in payload
    weights = [s["weight"] for s in payload["sectors"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)


def test_scan_csv_header(capsys):
    code, out, _ = run_cli(
        ["scan", "--model", "xx", "--a", "2", "--L-min", "8", "--L-max", "32",
         "--format", "csv"], capsys
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "L,e1_cont_bits,E1_bits,entropy_bits,ln_absdet_T,rms_term_bits"
    assert len(out.splitlines()) == 1 + len(geometric_grid(8, 32))


def test_fit_subcommand(capsys):
    code, out, _ = run_cli(
        ["fit", "--model", "xx", "--a", "2", "--L-min", "16", "--L-max", "128",
         "--quantity", "entropy_bits"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.2 < payload["slope"] < 0.5


@pytest.mark.parametrize("model", [["--model", "xx", "--a", "2"],
                                   ["--model", "xy", "--a", "2", "--gamma", "0.5"]],
                         ids=["xx", "xy"])
def test_fit_refuses_a_short_grid_before_scanning(model, capsys, monkeypatch):
    import singlecopy.cli as cli

    def computed(*args, **kwargs):
        raise AssertionError("fit scanned a grid it refuses")

    monkeypatch.setattr(cli, "scan", computed)
    code, out, err = run_cli(["fit", *model, "--L-min", "64", "--L-max", "128",
                              "--per-octave", "1"], capsys)
    assert code == 1 and out == ""
    assert err == "usage error: need at least 3 grid points in the window to fit\n"


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(
        ["oracle", "--model", "xx", "--a", "2", "--n", "10", "--L", "5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_abs_diff"] < 1e-8
    assert payload["defect"] is False


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(["analyze", "--model", "xx", "--a", "2"], capsys)  # no --L
    assert code == 1
    code, _, err = run_cli(["analyze", "--model", "custom", "--L", "4"], capsys)  # no --A
    assert code == 1
    code, _, err = run_cli(["scan", "--model", "xx", "--a", "2",
                            "--L-min", "32", "--L-max", "8"], capsys)
    assert code == 1
    code, _, err = run_cli(["scan", "--model", "xx", "--a", "2", "--L-min", "8",
                            "--L-max", "32", "--per-octave", "33"], capsys)
    assert code == 1 and "per_octave" in err
    code, _, err = run_cli(["analyze", "--model", "xx", "--a", "2", "--L", "8",
                            "--config", "cfg.json"], capsys)  # removed flag
    assert code == 1
    code, out, err = run_cli(["check"], capsys)  # removed subcommand
    assert code == 1 and out == "" and "invalid choice: 'check'" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--model", "xx", "--a", "2", "--n", "10", "--L", "5", "--tol", "1e-2"],
    ["analyze", "--model", "ising", "--L", "16", "--tol", "1e-12"],
], ids=["oracle-tol", "analyze-tol"])
def test_flags_a_subcommand_ignores_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("model_flags, message", [
    (["--model", "custom", "--A=1", "--a", "5"], "does not read a"),
    (["--model", "custom", "--A=1", "--gamma", "3"], "does not read gamma"),
    (["--model", "xx", "--a", "2", "--A=1,2"], "does not read A"),
    (["--model", "ising", "--A=1,2"], "does not read A"),
    (["--model", "xy", "--a", "2", "--gamma", "0.5", "--B=0.1"], "does not read B"),
    (["--model", "custom", "--A="], "A_0"),
    (["--model", "ising", "--a", "2"], "does not read a"),
], ids=["custom-a", "custom-gamma", "xx-A", "ising-A", "xy-B", "custom-empty-A", "ising-a"])
def test_model_flags_the_kind_does_not_read_are_usage_errors(model_flags, message, capsys):
    code, out, err = run_cli(["analyze", *model_flags, "--L", "4"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and message in err


@pytest.mark.parametrize("dims", ["0", "1025", "5000"])
def test_ep_dims_out_of_range_is_usage_error(dims, capsys):
    code, out, err = run_cli(["analyze", "--model", "xx", "--a", "2", "--L", "8",
                              "--with-ep", "--ep-dims", dims], capsys)
    assert code == 1
    assert out == ""
    assert "Ep_dims must be in [1, 1024]" in err


@pytest.mark.parametrize("sub", [
    ["analyze", "--model", "xx", "--a", "2", "--L", "8"],
    ["fit", "--model", "xx", "--a", "2", "--L-min", "8", "--L-max", "32"],
    ["oracle", "--model", "xx", "--a", "2", "--n", "10", "--L", "5"],
], ids=["analyze", "fit", "oracle"])
def test_csv_format_outside_scan_is_refused_before_computing(sub, capsys, monkeypatch):
    import singlecopy.cli as cli

    def computed(*args, **kwargs):
        raise AssertionError("the subcommand computed before refusing --format csv")

    for name in ("report", "scan", "compare_oracle"):
        monkeypatch.setattr(cli, name, computed)
    code, out, err = run_cli(sub + ["--format", "csv"], capsys)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --format csv" in err


def test_numerical_failure_exit_2(capsys):
    # n = 8 hits the exact zero mode of the open xx(2) chain
    code, out, err = run_cli(
        ["oracle", "--model", "xx", "--a", "2", "--n", "8", "--L", "4"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("numerical failure:") and "degenerate" in err


XX = ["--model", "xx", "--a", "2"]


def test_model_kinds_and_oracle_pairs_come_from_the_library(capsys):
    import singlecopy.cli as cli
    from singlecopy.model import MODEL_KINDS
    from singlecopy.oracle import ORACLE_PAIRS

    subs = cli.build_parser()._subparsers._group_actions[0].choices
    choices = {name: {a.dest: a.choices for a in sub._actions} for name, sub in subs.items()}
    assert tuple(MODEL_KINDS) == ("xx", "xy", "ising", "custom")
    assert all(tuple(c["model"]) == tuple(MODEL_KINDS) for c in choices.values())
    assert tuple(choices["oracle"]["pair"]) == ORACLE_PAIRS
    for sub in subs:
        code, out, err = run_cli([sub, "--model", "foo"], capsys)
        assert code == 1 and out == "" and "invalid choice: 'foo'" in err
    code, out, err = run_cli(["oracle", *XX, "--n", "6", "--L", "3", "--pair", "foo"], capsys)
    assert code == 1 and out == "" and "invalid choice: 'foo'" in err


@pytest.mark.parametrize("argv, message", [
    (["analyze", *XX, "--L", "0"], "block length L must be in [1, 4096]"),
    (["analyze", *XX, "--L", "4097"], "block length L must be in [1, 4096]"),
    (["analyze", *XX, "--L", "8", "--with-ep", "--ep-dims", "0"], "Ep_dims must be in"),
    (["analyze", *XX, "--L", "8", "--with-ep", "--ep-dims", "5000"], "Ep_dims must be in"),
    (["analyze", "--model", "xy", "--a", "2", "--gamma", "0.5", "--L", "8", "--with-sectors"],
     "isotropic"),
    (["analyze", *XX, "--L", "8", "--format", "json"], "unrecognized arguments"),
    (["scan", *XX, "--L-max", "5000"], "L_max <= 4096"),
    (["scan", *XX, "--L-min", "32", "--L-max", "8"], "L_min <= L_max"),
    (["scan", *XX, "--L-min", "8", "--L-max", "32", "--per-octave", "33"], "per_octave"),
    (["fit", *XX, "--L-min", "32", "--L-max", "8"], "L_min <= L_max"),
    (["oracle", *XX, "--n", "13", "--L", "4"], "n <= 12"),
    (["oracle", *XX, "--n", "6", "--L", "0"], "1 <= L <= n"),
    (["oracle", *XX, "--n", "6", "--L", "7"], "1 <= L <= n"),
], ids=["analyze-L-0", "analyze-L-4097", "ep-dims-0", "ep-dims-5000", "xy-sectors",
        "analyze-format", "scan-L-max", "scan-L-min", "scan-per-octave", "fit-L-min",
        "oracle-n-13", "oracle-L-0", "oracle-L-past-n"])
def test_refused_inputs_exit_1(argv, message, capsys):
    # the library owns the rule; the CLI reports its ModelError as a usage error
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and message in err


@pytest.mark.parametrize("argv, model, t0", [
    (["--model", "xx", "--a", "1e-320"], build_model("xx", a=1e-320), -1.0),
    (["--model", "custom", "--A=1,1e-320"], build_model("custom", A=(1, 1e-320)), 1.0),
], ids=["xx", "custom"])
def test_subnormal_couplings_give_the_constant_chain(argv, model, t0, capsys):
    # the subnormal end coupling used to crash the root finder (exit 1)
    code, out, _ = run_cli(["analyze", *argv, "--L", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["E1_bits"] == payload["entropy_bits"] == 0
    assert coefficient_table(model, 4).coeff(0) == t0


def test_overflowing_couplings_are_a_usage_error(capsys):
    code, out, err = run_cli(["analyze", "--model", "custom", "--A=1e308,1e308", "--L", "4"],
                             capsys)
    assert code == 1 and out == "" and "overflow" in err


def test_usage_error_writes_no_partial_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(["analyze", "--model", "xx", "--a", "2", "--out", str(out)], capsys)
    assert code == 1
    assert not out.exists()


def test_out_file_and_config(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(["analyze", "--model", "xx", "--a", "2", "--L", "12",
                               "--out", str(out)], capsys)
    assert code == 0
    assert stdout == ""
    payload = json.loads(out.read_text())
    assert payload["L"] == 12


def test_cli_entry_point_runs():
    proc = run_module(["analyze", "--model", "ising", "--L", "4"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["model"]["label"] == "ising"


def test_deterministic_output():
    procs = [run_module(["analyze", "--model", "ising", "--L", "12"]) for _ in range(2)]
    assert [p.returncode for p in procs] == [0, 0]
    assert procs[0].stdout and procs[0].stdout == procs[1].stdout


# --- serialization round trips ----------------------------------------------

def test_report_round_trip_bit_exact():
    rep = report(build_model("xx", a=2), 10, with_Ep=True, with_sectors=True)
    parsed = from_dict(EntanglementReport, json.loads(dumps(report_to_dict(rep))))
    assert parsed.L == rep.L
    assert parsed.alpha1 == rep.alpha1          # bit-exact through the shortest repr
    assert parsed.E1_bits == rep.E1_bits
    assert parsed.e1_cont_bits == rep.e1_cont_bits
    assert parsed.entropy_bits == rep.entropy_bits
    assert parsed.Ep_bits == rep.Ep_bits
    assert parsed.model == rep.model
    assert [s.weight for s in parsed.sectors] == [s.weight for s in rep.sectors]
    assert parsed.diagnostics == rep.diagnostics


def test_scan_round_trip():
    series = scan(build_model("xx", a=2), (4, 8, 16))
    parsed = scan_from_dict(json.loads(dumps(scan_to_dict(series))))
    assert parsed.grid == series.grid
    for r1, r2 in zip(parsed.rows, series.rows):
        assert r1 == r2


def test_minus_inf_round_trips_as_string():
    row = ScanRow(L=3, e1_cont_bits=3.0, E1_bits=3.0, entropy_bits=3.0,
                  ln_absdet_T=-math.inf, rms_term_bits=1.5)
    series = ScanSeries(build_model("xx", a=2), (3,), (row,))
    text = dumps(scan_to_dict(series))
    assert '"-inf"' in text
    parsed = scan_from_dict(json.loads(text))
    assert parsed.rows[0].ln_absdet_T == -math.inf
    csv_text = scan_to_csv(series)
    assert csv_text.splitlines()[1].split(",")[4] == "-inf"


def test_fit_round_trip():
    fit = fit_log(scan(build_model("xx", a=2), geometric_grid(32, 128)), "ln_absdet_T")
    parsed = from_dict(ScalingFit, json.loads(dumps(to_dict(fit))))
    assert parsed == fit


def test_comparison_round_trip():
    cmp = compare_oracle(build_model("xx", a=2), 10, 5)
    parsed = from_dict(OracleComparison, json.loads(dumps(comparison_to_dict(cmp))))
    assert parsed.n == cmp.n and parsed.L == cmp.L
    assert parsed.gap == cmp.gap
    assert parsed.max_abs_diff == cmp.max_abs_diff
    assert np.array_equal(parsed.spectra[0], cmp.spectra[0])
    assert np.array_equal(parsed.spectra[1], cmp.spectra[1])


def test_failed_scan_row_round_trips():
    ok = ScanRow(L=4, e1_cont_bits=1.0, E1_bits=1.0, entropy_bits=2.0,
                 ln_absdet_T=-0.5, rms_term_bits=0.25)
    series = ScanSeries(build_model("xx", a=2), (3, 4), (ScanRow(L=3, error="boom"), ok))
    payload = json.loads(dumps(scan_to_dict(series)))
    assert payload["rows"][0] == {"L": 3, "error": "boom"}
    parsed = scan_from_dict(payload)
    assert parsed == series
    assert parsed.rows[0].error == "boom"
    assert all(math.isnan(getattr(parsed.rows[0], f)) for f in
               ("e1_cont_bits", "E1_bits", "entropy_bits", "ln_absdet_T", "rms_term_bits"))


def _strict_loads(text):
    """``json.loads`` that fails on the non-standard constants NaN, Infinity and -Infinity."""
    def refuse(name):
        raise AssertionError(f"bare {name} in the JSON text")
    return json.loads(text, parse_constant=refuse)


def _same_float(x, y):
    return (math.isnan(x) and math.isnan(y)) or struct.pack("<d", x) == struct.pack("<d", y)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=len(SCAN_FIELDS), max_size=len(SCAN_FIELDS)))
@example([math.inf, -math.inf, -0.0, 5e-324, 1.7e308])
@example([-1.7e308, 2.2250738585072009e-308, math.nan, 0.1, -5e-324])
def test_scan_row_floats_round_trip_exactly(values):
    # infinities travel as strings and NaN, the default, is omitted, so the text is strict JSON
    row = ScanRow(L=7, **dict(zip(SCAN_FIELDS, values)))
    series = ScanSeries(build_model("xx", a=2), (7,), (row,))
    parsed = scan_from_dict(_strict_loads(dumps(scan_to_dict(series)))).rows[0]
    assert all(_same_float(getattr(parsed, n), x) for n, x in zip(SCAN_FIELDS, values))


def test_cli_json_is_strict(capsys):
    code, out, _ = run_cli(["analyze", "--model", "xx", "--a", "2", "--L", "6", "--with-ep",
                            "--with-sectors"], capsys)
    assert code == 0
    _strict_loads(out)
    # custom A = (0, 1) has t_0 = 0, so the 1 x 1 block's ln|det T| is -inf
    code, out, _ = run_cli(["scan", "--model", "custom", "--A=0,1", "--L-min", "1",
                            "--L-max", "4"], capsys)
    assert code == 0
    assert _strict_loads(out)["rows"][0]["ln_absdet_T"] == "-inf"


def test_nan_in_a_non_default_field_is_refused():
    rep = report(build_model("xx", a=2), 6)
    with pytest.raises(ValueError):
        dumps(report_to_dict(dataclasses.replace(rep, entropy_bits=math.nan)))


def _key_tree(obj):
    """Keys of a JSON value in order, with lists of objects reduced to their first element."""
    if isinstance(obj, dict):
        return [(k, _key_tree(v)) for k, v in obj.items()]
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return [_key_tree(obj[0])]
    return None


MODEL_KEYS = ("model", [("label", None), ("w", None), ("A", None), ("B", None),
                        ("a", None), ("gamma", None)])


@pytest.mark.parametrize("argv, keys", [
    (["analyze", "--model", "xx", "--a", "2", "--L", "6", "--with-ep", "--with-sectors"],
     [MODEL_KEYS, ("L", None), ("alpha1", None), ("E1_bits", None),
      ("e1_cont_bits", None), ("entropy_bits", None), ("Ep_bits", None),
      ("sectors", [[("N", None), ("weight", None), ("max_eigenvalue", None)]]),
      ("diagnostics", [("ln_absdet_T", None), ("rms_term_bits", None),
                       ("spectrum_method", None), ("Ep_truncated", None)]),
      ("version", None)]),
    (["fit", "--model", "xx", "--a", "2", "--L-min", "16", "--L-max", "64",
      "--quantity", "entropy_bits"],
     [("quantity", None), ("slope", None), ("intercept", None), ("rms_residual", None),
      ("grid_range", None), ("version", None)]),
    (["fit", "--model", "xx", "--a", "2", "--L-min", "16", "--L-max", "64",
      "--quantity", "ln_absdet_T"],
     [("quantity", None), ("slope", None), ("intercept", None), ("rms_residual", None),
      ("grid_range", None), ("predicted_slope", None), ("version", None)]),
    (["oracle", "--model", "xx", "--a", "2", "--n", "10", "--L", "5"],
     [("n", None), ("L", None), ("gap", None), ("max_abs_diff", None), ("spectra", None),
      ("method_pair", None), ("defect", None), ("version", None)]),
    (["scan", "--model", "xx", "--a", "2", "--L-min", "8", "--L-max", "16"],
     [MODEL_KEYS, ("grid", None),
      ("rows", [[("L", None), ("e1_cont_bits", None), ("E1_bits", None),
                 ("entropy_bits", None), ("ln_absdet_T", None), ("rms_term_bits", None)]]),
      ("version", None)]),
])
def test_json_key_order(argv, keys, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert _key_tree(json.loads(out)) == keys


def test_csv_renders_17_digits():
    series = scan(build_model("xx", a=2), (4, 8))
    text = scan_to_csv(series)
    row = text.splitlines()[1].split(",")
    assert float(row[1]) == series.rows[0].e1_cont_bits
