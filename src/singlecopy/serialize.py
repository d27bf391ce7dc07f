"""Fixed-schema JSON/CSV emission and parsing for all report types.

Floats are rendered with 17 significant digits so JSON round trips are
bit-exact; infinities become the strings "inf"/"-inf".
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

from . import __version__
from .asymptotics import SCAN_FIELDS, ScalingFit, ScanRow, ScanSeries, TwoTermFit
from .entangle import EntanglementReport, SectorWeight
from .model import ModelSpec, build_model
from .oracle import OracleComparison

CSV_COLUMNS = ("L",) + SCAN_FIELDS


def _float_token(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _write(obj, out: io.StringIO, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.write(f'{pad}  {json.dumps(key)}: ')
            _write(val, out, indent + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        out.write("[")
        for i, val in enumerate(obj):
            _write(val, out, indent + 1)
            if i < len(obj) - 1:
                out.write(", ")
        out.write("]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_float_token(float(obj)))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    buf = io.StringIO()
    _write(obj, buf, 0)
    buf.write("\n")
    return buf.getvalue()


def _parse_float(tok) -> float:
    if tok == "inf":
        return math.inf
    if tok == "-inf":
        return -math.inf
    return float(tok)


# ---------------------------------------------------------------------------
# per-type converters

def model_to_dict(model: ModelSpec) -> dict:
    d = {"label": model.label, "w": model.w, "A": list(model.A), "B": list(model.B)}
    if model.a is not None:
        d["a"] = model.a
    if model.gamma is not None:
        d["gamma"] = model.gamma
    return d


def model_from_dict(d: dict) -> ModelSpec:
    label = d.get("label", "custom")
    if label == "custom":
        return build_model("custom", A=d["A"], B=d.get("B"))
    kwargs = {}
    if "a" in d:
        kwargs["a"] = _parse_float(d["a"])
    if "gamma" in d:
        kwargs["gamma"] = _parse_float(d["gamma"])
    return build_model(label, **kwargs)


def report_to_dict(rep: EntanglementReport) -> dict:
    d = {
        "model": model_to_dict(rep.model),
        "L": rep.L,
        "alpha1": rep.alpha1,
        "E1_bits": rep.E1_bits,
        "e1_cont_bits": rep.e1_cont_bits,
        "entropy_bits": rep.entropy_bits,
    }
    if rep.Ep_bits is not None:
        d["Ep_bits"] = rep.Ep_bits
    if rep.sectors is not None:
        d["sectors"] = [
            {"N": s.N, "weight": s.weight, "max_eigenvalue": s.max_eigenvalue}
            for s in rep.sectors
        ]
    d["diagnostics"] = dict(rep.diagnostics)
    d["version"] = __version__
    return d


def report_from_dict(d: dict) -> EntanglementReport:
    sectors = None
    if "sectors" in d:
        sectors = tuple(
            SectorWeight(int(s["N"]), _parse_float(s["weight"]), _parse_float(s["max_eigenvalue"]))
            for s in d["sectors"]
        )
    diagnostics = {
        k: (_parse_float(v) if isinstance(v, (str, float, int)) and not isinstance(v, bool) else v)
        for k, v in d["diagnostics"].items()
    }
    return EntanglementReport(
        model=model_from_dict(d["model"]),
        L=int(d["L"]),
        alpha1=_parse_float(d["alpha1"]),
        E1_bits=_parse_float(d["E1_bits"]),
        e1_cont_bits=_parse_float(d["e1_cont_bits"]),
        entropy_bits=_parse_float(d["entropy_bits"]),
        Ep_bits=_parse_float(d["Ep_bits"]) if "Ep_bits" in d else None,
        sectors=sectors,
        diagnostics=diagnostics,
    )


def _row_to_dict(row: ScanRow) -> dict:
    d = {col: getattr(row, col) for col in CSV_COLUMNS}
    if row.error is not None:
        d["error"] = row.error
    return d


def scan_to_dict(series: ScanSeries) -> dict:
    return {
        "model": model_to_dict(series.model),
        "grid": list(series.grid),
        "rows": [_row_to_dict(r) for r in series.rows],
        "version": __version__,
    }


def scan_from_dict(d: dict) -> ScanSeries:
    rows = [
        ScanRow(L=int(rd["L"]), **{f: _parse_float(rd[f]) for f in SCAN_FIELDS},
                error=rd.get("error"))
        for rd in d["rows"]
    ]
    return ScanSeries(
        model=model_from_dict(d["model"]),
        grid=tuple(int(x) for x in d["grid"]),
        rows=tuple(rows),
    )


def fit_to_dict(fit: ScalingFit) -> dict:
    d = {
        "quantity": fit.quantity,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "rms_residual": fit.rms_residual,
        "grid_range": list(fit.grid_range),
    }
    if fit.two_term is not None:
        d["two_term"] = {"a": fit.two_term.a, "b": fit.two_term.b, "c": fit.two_term.c}
    if fit.predicted_slope is not None:
        d["predicted_slope"] = fit.predicted_slope
    if fit.n_excluded:
        d["n_excluded"] = fit.n_excluded
    d["version"] = __version__
    return d


def fit_from_dict(d: dict) -> ScalingFit:
    two = None
    if "two_term" in d:
        t = d["two_term"]
        two = TwoTermFit(_parse_float(t["a"]), _parse_float(t["b"]), _parse_float(t["c"]))
    return ScalingFit(
        quantity=d["quantity"],
        slope=_parse_float(d["slope"]),
        intercept=_parse_float(d["intercept"]),
        rms_residual=_parse_float(d["rms_residual"]),
        grid_range=(int(d["grid_range"][0]), int(d["grid_range"][1])),
        two_term=two,
        predicted_slope=_parse_float(d["predicted_slope"]) if "predicted_slope" in d else None,
        n_excluded=int(d.get("n_excluded", 0)),
    )


def comparison_to_dict(cmp: OracleComparison) -> dict:
    return {
        "n": cmp.n,
        "L": cmp.L,
        "gap": cmp.gap,
        "max_abs_diff": cmp.max_abs_diff,
        "spectra": [list(map(float, cmp.spectra[0])), list(map(float, cmp.spectra[1]))],
        "method_pair": cmp.method_pair,
        "defect": cmp.defect,
        "version": __version__,
    }


def comparison_from_dict(d: dict) -> OracleComparison:
    a = np.array([_parse_float(x) for x in d["spectra"][0]])
    b = np.array([_parse_float(x) for x in d["spectra"][1]])
    return OracleComparison(
        n=int(d["n"]),
        L=int(d["L"]),
        gap=_parse_float(d["gap"]),
        max_abs_diff=_parse_float(d["max_abs_diff"]),
        spectra=(a, b),
        method_pair=d["method_pair"],
        defect=bool(d["defect"]),
    )


def scan_to_csv(series: ScanSeries) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in series.rows:
        cells = [str(row.L)]
        for col in SCAN_FIELDS:
            x = getattr(row, col)
            if math.isnan(x):
                cells.append("")
            elif math.isinf(x):
                cells.append("inf" if x > 0 else "-inf")
            else:
                cells.append(format(x, ".17g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
