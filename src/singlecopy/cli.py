"""Command-line front end.

Subcommands: ``analyze`` (one report), ``scan`` (grid of block lengths),
``fit`` (scan + scaling fit), ``oracle`` (cross-validation).  Exit codes:
0 ok, 1 usage error (including a model flag the model kind does not read),
2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .asymptotics import SCAN_FIELDS, fit_log, geometric_grid, scan
from .entangle import MAX_EP_DIMS, report
from .errors import ModelError, ToolkitError
from .model import build_model
from .oracle import compare_oracle
from .serialize import dumps, scan_to_csv, to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _csv_floats(text):
    text = text.strip()
    return tuple(float(x) for x in text.split(",")) if text else ()


def _add_model_flags(p):
    p.add_argument("--model", choices=("xx", "xy", "ising", "custom"), required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--A", type=_csv_floats, default=None, metavar="v1,v2,...")
    p.add_argument("--B", type=_csv_floats, default=None, metavar="v1,v2,...")


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
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--with-ep", action="store_true")
    p.add_argument("--with-sectors", action="store_true")
    p.add_argument("--ep-dims", type=int, default=256)

    p = subs.add_parser("scan", help="scan a geometric grid of block lengths")
    _add_model_flags(p)
    _add_grid_flags(p)

    p = subs.add_parser("fit", help="scan, then fit a quantity against log2(L)")
    _add_model_flags(p)
    _add_grid_flags(p)
    p.add_argument("--quantity", default="e1_cont_bits", choices=SCAN_FIELDS)
    p.add_argument("--two-term", action="store_true")

    p = subs.add_parser("oracle", help="cross-validate Gaussian vs exact methods")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--pair", choices=("gaussian-vs-ed", "gaussian-vs-thermodynamic"),
                   default="gaussian-vs-ed")

    # each subcommand takes only the flags it reads
    for name, p in subs.choices.items():
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--format", choices=("json", "csv") if name == "scan" else ("json",),
                       default="json")
    return parser


def _model_from_args(args):
    try:
        return build_model(args.model, a=args.a, gamma=args.gamma, A=args.A, B=args.B)
    except ModelError as exc:
        raise UsageError(str(exc)) from exc


def _grid_from_args(args):
    if args.L_min < 1 or args.L_max < args.L_min:
        raise UsageError("need 1 <= L-min <= L-max")
    if not 1 <= args.per_octave <= args.L_max:
        raise UsageError("need 1 <= per-octave <= L-max (L-max already lists every integer)")
    return geometric_grid(args.L_min, args.L_max, args.per_octave)


def emit(result, fmt: str, out_path) -> None:
    """Serialize one result dataclass to its destination (CSV, which only
    ``scan`` accepts, for a scan series)."""
    text = scan_to_csv(result) if fmt == "csv" else dumps(to_dict(result))
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _cmd_analyze(args):
    model = _model_from_args(args)
    if args.L < 1:
        raise UsageError("analyze needs --L >= 1")
    if not 1 <= args.ep_dims <= MAX_EP_DIMS:
        raise UsageError(f"--ep-dims must be in [1, {MAX_EP_DIMS}]")
    rep = report(model, args.L, with_Ep=args.with_ep, with_sectors=args.with_sectors,
                 Ep_dims=args.ep_dims)
    emit(rep, args.format, args.out)
    return EXIT_OK


def _cmd_scan(args):
    model = _model_from_args(args)
    grid = _grid_from_args(args)
    series = scan(model, grid, progress=lambda msg: print(msg, file=sys.stderr))
    emit(series, args.format, args.out)
    return EXIT_OK


def _cmd_fit(args):
    model = _model_from_args(args)
    grid = _grid_from_args(args)
    series = scan(model, grid, progress=lambda msg: print(msg, file=sys.stderr))
    fit = fit_log(series, args.quantity, two_term=args.two_term)
    emit(fit, args.format, args.out)
    return EXIT_OK


def _cmd_oracle(args):
    model = _model_from_args(args)
    cmp = compare_oracle(model, args.n, args.L, args.pair)
    emit(cmp, args.format, args.out)
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "fit": _cmd_fit,
    "oracle": _cmd_oracle,
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
