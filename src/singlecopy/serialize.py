"""Fixed-schema JSON/CSV emission and parsing, derived from the result dataclasses.

The JSON object of a result lists its dataclass fields in declaration
order, followed by ``"version"``. Nested dataclasses become objects, and
tuples and arrays become lists. A field that holds its declared default
(``None``, NaN or ``0``) is omitted, and ``from_dict`` restores it from the
same default. So reordering or renaming a field changes the schema.

``_encode`` turns numpy scalars into Python values and infinities into the
strings "inf"/"-inf", which ``float`` parses back. ``dumps`` is the standard
library's strict encoder: floats take their shortest round-trip repr, so round
trips are bit-exact, every list element sits on its own line, and a NaN
outside a default field raises ``ValueError``.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from . import __version__
from .asymptotics import SCAN_FIELDS, ScanSeries

CSV_COLUMNS = ("L",) + SCAN_FIELDS


def dumps(obj) -> str:
    """Strict JSON text of an encoded result (see :func:`to_dict`), indented by 2."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


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
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
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
    if tp is dict:          # diagnostics: flags and names stay, numbers and "inf"/"-inf" are floats
        return {k: float(v) if not isinstance(v, (bool, str)) or v in ("inf", "-inf") else v
                for k, v in value.items()}
    return tp(value)


def from_dict(cls, d: dict):
    """Inverse of :func:`to_dict` for the dataclass ``cls``; omitted fields take their defaults."""
    hints = typing.get_type_hints(cls)
    return cls(**{f.name: _decode(hints[f.name], d[f.name]) for f in fields(cls) if f.name in d})


def scan_from_dict(d: dict) -> ScanSeries:
    return from_dict(ScanSeries, d)


def scan_to_csv(series: ScanSeries) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in series.rows:      # format renders infinities as inf and -inf
        values = (getattr(row, col) for col in SCAN_FIELDS)
        lines.append(",".join([str(row.L)] + ["" if math.isnan(x) else format(x, ".17g")
                                              for x in values]))
    return "\n".join(lines) + "\n"
