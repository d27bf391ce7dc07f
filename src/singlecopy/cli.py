"""Command-line front end.

Subcommands: ``analyze`` (one report), ``scan`` (grid of block lengths),
``fit`` (scan + scaling fit), ``oracle`` (cross-validation).  The front end
only parses; the library owns every input rule.  Exit codes: 0 ok, 1 usage
error (a flag the parser refuses, or an input the library refuses with
``ModelError``), 2 numerical failure (any other ``ToolkitError``).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .asymptotics import SCAN_FIELDS, fit_log, geometric_grid, require_fit_rows, scan
from .entangle import report
from .errors import ModelError, ToolkitError
from .model import MODEL_KINDS, build_model
from .oracle import ORACLE_PAIRS, compare_oracle
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
    p.add_argument("--model", choices=tuple(MODEL_KINDS), required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--A", type=_csv_floats, default=None, metavar="v1,v2,...")
    p.add_argument("--B", type=_csv_floats, default=None, metavar="v1,v2,...")


def _add_grid_flags(p):
    p.add_argument("--L-min", type=int, default=64)
    p.add_argument("--L-max", type=int, default=2048)
    p.add_argument("--per-octave", type=int, default=2)


def _scan(model, args, fit=False):
    grid = geometric_grid(args.L_min, args.L_max, args.per_octave)
    if fit:
        require_fit_rows(len(grid))     # before the scan, which a refused fit would waste
    return scan(model, grid, progress=lambda msg: print(msg, file=sys.stderr))


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
    p.set_defaults(call=lambda model, args: report(
        model, args.L, with_Ep=args.with_ep, with_sectors=args.with_sectors, Ep_dims=args.ep_dims))

    p = subs.add_parser("scan", help="scan a geometric grid of block lengths")
    _add_model_flags(p)
    _add_grid_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(call=_scan)

    p = subs.add_parser("fit", help="scan, then fit a quantity against log2(L)")
    _add_model_flags(p)
    _add_grid_flags(p)
    p.add_argument("--quantity", default="e1_cont_bits", choices=SCAN_FIELDS)
    p.set_defaults(call=lambda model, args: fit_log(_scan(model, args, fit=True), args.quantity))

    p = subs.add_parser("oracle", help="cross-validate Gaussian vs exact methods")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--pair", choices=ORACLE_PAIRS, default=ORACLE_PAIRS[0])
    p.set_defaults(call=lambda model, args: compare_oracle(model, args.n, args.L, args.pair))

    # each subcommand takes only the flags it reads
    for p in subs.choices.values():
        p.add_argument("--out", default=None, metavar="PATH")
    return parser


def run(argv) -> int:
    """Parse ``argv`` (without the program name), make the subcommand's one library
    call and write its result as JSON (CSV, which only ``scan`` accepts, for a scan)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        model = build_model(args.model, a=args.a, gamma=args.gamma, A=args.A, B=args.B)
        result = args.call(model, args)
        text = scan_to_csv(result) if vars(args).get("format") == "csv" else dumps(to_dict(result))
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
        return EXIT_OK
    except (UsageError, ModelError) as exc:
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
