"""Command-line front end.

Subcommands: ``analyze`` (one report), ``scan`` (grid of block lengths),
``fit`` (scan + scaling fit), ``oracle`` (cross-validation), ``check``
(built-in self checks).  Exit codes: 0 ok, 1 usage error, 2 numerical
failure, 3 failed check.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .asymptotics import (SCAN_FIELDS, ScanSeries, fh_slope, fit_log, geometric_grid,
                          integral_check, scan)
from .entangle import MAX_EP_DIMS, nielsen_transformable, probabilistic_Ep, report, single_copy_E1
from .errors import ToolkitError
from .model import build_model
from .oracle import compare_oracle
from .serialize import dumps, scan_to_csv, to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_CHECK = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _csv_floats(text):
    text = text.strip()
    return tuple(float(x) for x in text.split(",")) if text else ()


def _add_model_flags(p):
    p.add_argument("--model", choices=("xx", "xy", "ising", "custom"), default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--A", type=_csv_floats, default=None, metavar="v1,v2,...")
    p.add_argument("--B", type=_csv_floats, default=None, metavar="v1,v2,...")


def _add_common_flags(p):
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_grid_flags(p):
    p.add_argument("--L-min", type=int, default=64)
    p.add_argument("--L-max", type=int, default=2048)
    p.add_argument("--per-octave", type=int, default=2)


def build_parser() -> _Parser:
    parser = _Parser(prog="singlecopy", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("analyze", help="entanglement report for one block length")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--L", type=int, required=False)
    p.add_argument("--with-ep", action="store_true")
    p.add_argument("--with-sectors", action="store_true")
    p.add_argument("--ep-dims", type=int, default=256)

    p = subs.add_parser("scan", help="scan a geometric grid of block lengths")
    _add_model_flags(p)
    _add_common_flags(p)
    _add_grid_flags(p)

    p = subs.add_parser("fit", help="scan, then fit a quantity against log2(L)")
    _add_model_flags(p)
    _add_common_flags(p)
    _add_grid_flags(p)
    p.add_argument("--quantity", default="e1_cont_bits",
                   choices=SCAN_FIELDS + ("neg_ln_absdet_T",))
    p.add_argument("--two-term", action="store_true")

    p = subs.add_parser("oracle", help="cross-validate Gaussian vs exact methods")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--n", type=int, required=False)
    p.add_argument("--L", type=int, required=False)
    p.add_argument("--pair", choices=("gaussian-vs-ed", "gaussian-vs-thermodynamic"),
                   default="gaussian-vs-ed")

    p = subs.add_parser("check", help="built-in self checks")
    _add_common_flags(p)
    p.add_argument("--integral", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--majorization", action="store_true")
    return parser


def _model_from_args(args):
    kind = args.model
    if kind is None:
        raise UsageError("--model is required")
    if kind == "custom":
        if args.A is None:
            raise UsageError("custom model needs --A")
        return build_model("custom", A=args.A, B=args.B)
    kwargs = {}
    if args.a is not None:
        kwargs["a"] = args.a
    if args.gamma is not None:
        kwargs["gamma"] = args.gamma
    return build_model(kind, **kwargs)


def _grid_from_args(args):
    if args.L_min < 1 or args.L_max < args.L_min:
        raise UsageError("need 1 <= L-min <= L-max")
    if args.per_octave < 1:
        raise UsageError("per-octave must be >= 1")
    return geometric_grid(args.L_min, args.L_max, args.per_octave)


def _emit_text(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def emit(result, fmt: str, out_path) -> None:
    """Serialize one result dataclass to its destination (CSV for scan series only)."""
    if fmt == "csv":
        if not isinstance(result, ScanSeries):
            raise UsageError("csv output is only defined for scan series")
        _emit_text(scan_to_csv(result), out_path)
    else:
        _emit_text(dumps(to_dict(result)), out_path)


def _cmd_analyze(args):
    model = _model_from_args(args)
    if args.L is None or args.L < 1:
        raise UsageError("analyze needs --L >= 1")
    if not 1 <= args.ep_dims <= MAX_EP_DIMS:
        raise UsageError(f"--ep-dims must be in [1, {MAX_EP_DIMS}]")
    rep = report(model, args.L, with_Ep=args.with_ep, with_sectors=args.with_sectors,
                 Ep_dims=args.ep_dims, abs_tol=args.tol)
    emit(rep, args.format, args.out)
    return EXIT_OK


def _cmd_scan(args):
    model = _model_from_args(args)
    grid = _grid_from_args(args)
    series = scan(model, grid, abs_tol=args.tol,
                  progress=lambda msg: print(msg, file=sys.stderr))
    emit(series, args.format, args.out)
    return EXIT_OK


def _cmd_fit(args):
    model = _model_from_args(args)
    grid = _grid_from_args(args)
    if args.two_term and args.quantity == "neg_ln_absdet_T":
        raise UsageError("--two-term is not defined for --quantity neg_ln_absdet_T")
    series = scan(model, grid, abs_tol=args.tol,
                  progress=lambda msg: print(msg, file=sys.stderr))
    if args.quantity == "neg_ln_absdet_T":
        fit = fh_slope(series)
    else:
        fit = fit_log(series, args.quantity, two_term=args.two_term)
    emit(fit, args.format, args.out)
    return EXIT_OK


def _cmd_oracle(args):
    model = _model_from_args(args)
    if args.n is None or args.L is None:
        raise UsageError("oracle needs --n and --L")
    cmp = compare_oracle(model, args.n, args.L, args.pair)
    emit(cmp, args.format, args.out)
    return EXIT_OK


def _check_integral(lines):
    ic = integral_check(1e-10)
    ok = abs(ic.value_natural_log + 1.0 / 6.0) <= 1e-9
    lines.append(("integral", ok,
                  f"value={ic.value_natural_log:.12f} target=-1/6"))
    return ok


def _check_oracle(lines):
    ok = True
    for kind, kwargs, n, L in (("xx", {"a": 2.0}, 10, 5), ("ising", {}, 9, 3)):
        cmp = compare_oracle(build_model(kind, **kwargs), n, L, "gaussian-vs-ed")
        good = cmp.max_abs_diff < 1e-8 and cmp.gap > 1e-6
        ok = ok and good
        lines.append((f"oracle-{kind}", good,
                      f"n={n} L={L} diff={cmp.max_abs_diff:.2e} gap={cmp.gap:.2e}"))
    return ok


def _check_majorization(lines):
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(200):
        d = int(rng.integers(1, 17))
        vals = np.sort(rng.random(d))[::-1]
        vals /= vals.sum()
        sc = single_copy_E1(float(vals[0]))
        feasible = [m for m in range(1, d + 2) if nielsen_transformable(vals, m)]
        if max(feasible) != sc.M_max:
            ok = False
            break
        ep = probabilistic_Ep(vals)
        entropy = float(-(vals * np.log2(vals, where=vals > 0,
                                         out=np.zeros_like(vals))).sum())
        if not (sc.E1_bits - 1e-9 <= ep.Ep_bits <= entropy + 1e-9):
            ok = False
            break
    lines.append(("majorization", ok, "200 random spectra"))
    return ok


def _cmd_check(args):
    wanted = [name for name, flag in (("integral", args.integral),
                                      ("oracle", args.oracle),
                                      ("majorization", args.majorization)) if flag]
    if not wanted:
        wanted = ["integral", "oracle", "majorization"]
    lines = []
    all_ok = True
    for name in wanted:
        runner = {"integral": _check_integral, "oracle": _check_oracle,
                  "majorization": _check_majorization}[name]
        all_ok = runner(lines) and all_ok
    text = "".join(
        f"[{name}] {'PASS' if good else 'FAIL'} {detail}\n" for name, good, detail in lines
    )
    _emit_text(text, args.out)
    return EXIT_OK if all_ok else EXIT_CHECK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "fit": _cmd_fit,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
}


def run(argv) -> int:
    """Parse ``argv`` (without the program name) and execute one subcommand."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ToolkitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
