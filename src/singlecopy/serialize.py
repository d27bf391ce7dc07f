"""Fixed-schema JSON/CSV emission and parsing, derived from the result dataclasses.

The JSON object of a result lists its dataclass fields in declaration
order, followed by ``"version"``. Nested dataclasses become objects, and
tuples and arrays become lists. A field that holds its declared default
(``None``, NaN or ``0``) is omitted, and ``from_dict`` restores it from the
same default. So reordering or renaming a field changes the schema.

Floats are rendered with 17 significant digits so JSON round trips are
bit-exact; infinities become the strings "inf"/"-inf", which ``float``
parses back.
"""

from __future__ import annotations

import io
import json
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from . import __version__
from .asymptotics import SCAN_FIELDS, ScanSeries

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


def _holds_default(value, default) -> bool:
    if default is MISSING:
        return False
    return value == default or (value != value and default != default)   # NaN


def _encode(obj):
    if is_dataclass(obj):
        out = {}
        for f in fields(obj):
            value = getattr(obj, f.name)
            if not _holds_default(value, f.default):
                out[f.name] = _encode(value)
        return out
    if isinstance(obj, (tuple, list, np.ndarray)):
        return [_encode(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    return obj


def to_dict(result) -> dict:
    """The JSON object of a result dataclass, with ``version`` last."""
    return {**_encode(result), "version": __version__}


report_to_dict = scan_to_dict = comparison_to_dict = to_dict


def _decode(tp, value):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_dataclass(tp):
        return from_dict(tp, value)
    if origin is types.UnionType:                    # X | None
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else _decode(inner, value)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        return tuple(_decode(a, v) for a, v in zip(args, value, strict=True))
    if tp is np.ndarray:
        return np.array([float(x) for x in value])
    if tp is dict:                                   # diagnostics: floats and flags
        return {k: v if isinstance(v, bool) else float(v) for k, v in value.items()}
    return tp(value)


def from_dict(cls, d: dict):
    """Inverse of :func:`to_dict` for the dataclass ``cls``; omitted fields take their defaults."""
    hints = typing.get_type_hints(cls)
    return cls(**{f.name: _decode(hints[f.name], d[f.name]) for f in fields(cls) if f.name in d})


def scan_from_dict(d: dict) -> ScanSeries:
    return from_dict(ScanSeries, d)


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
