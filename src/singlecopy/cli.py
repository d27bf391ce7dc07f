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
from .asymptotics import SCAN_FIELDS, fh_slope, fit_log, geometric_grid, integral_check, scan
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
    p.add_argument("--L", type=int, required=False)
    p.add_argument("--with-ep", action="store_true")
    p.add_argument("--with-sectors", action="store_true")
    p.add_argument("--ep-dims", type=int, default=256)

    p = subs.add_parser("scan", help="scan a geometric grid of block lengths")
    _add_model_flags(p)
    _add_grid_flags(p)

    p = subs.add_parser("fit", help="scan, then fit a quantity against log2(L)")
    _add_model_flags(p)
    _add_grid_flags(p)
    p.add_argument("--quantity", default="e1_cont_bits",
                   choices=SCAN_FIELDS + ("neg_ln_absdet_T",))
    p.add_argument("--two-term", action="store_true")

    p = subs.add_parser("oracle", help="cross-validate Gaussian vs exact methods")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=False)
    p.add_argument("--L", type=int, required=False)
    p.add_argument("--pair", choices=("gaussian-vs-ed", "gaussian-vs-thermodynamic"),
                   default="gaussian-vs-ed")

    p = subs.add_parser("check", help="built-in self checks")
    for name in CHECKS:
        p.add_argument(f"--{name}", action="store_true")

    # each subcommand takes only the flags it reads
    for name, p in subs.choices.items():
        p.add_argument("--out", default=None, metavar="PATH")
        if name != "check":
            p.add_argument("--format", choices=("json", "csv") if name == "scan" else ("json",),
                           default="json")
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
    if not 1 <= args.per_octave <= args.L_max:
        raise UsageError("need 1 <= per-octave <= L-max (L-max already lists every integer)")
    return geometric_grid(args.L_min, args.L_max, args.per_octave)


def _emit_text(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def emit(result, fmt: str, out_path) -> None:
    """Serialize one result dataclass to its destination (CSV, which only
    ``scan`` accepts, for a scan series)."""
    _emit_text(scan_to_csv(result) if fmt == "csv" else dumps(to_dict(result)), out_path)


def _cmd_analyze(args):
    model = _model_from_args(args)
    if args.L is None or args.L < 1:
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
    if args.two_term and args.quantity == "neg_ln_absdet_T":
        raise UsageError("--two-term is not defined for --quantity neg_ln_absdet_T")
    series = scan(model, grid, progress=lambda msg: print(msg, file=sys.stderr))
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


def check_integral():
    """The scaling integral against its closed form -1/6."""
    ic = integral_check()
    ok = abs(ic.value_natural_log + 1.0 / 6.0) <= 1e-9
    return ok, (f"value={ic.value_natural_log:.12f} target=-1/6"
                f" (diff {abs(ic.value_natural_log + 1.0 / 6.0):.2e})")


def check_oracle():
    """Finite Gaussian chain against exact diagonalization for xx(2) and ising."""
    results = [(kind, compare_oracle(build_model(kind, **kwargs), n, L, "gaussian-vs-ed"))
               for kind, kwargs, n, L in (("xx", {"a": 2.0}, 10, 5), ("ising", {}, 9, 3))]
    ok = all(c.max_abs_diff < 1e-8 and c.gap > 1e-6 for _, c in results)
    return ok, "; ".join(f"{kind} n={c.n} L={c.L}: diff={c.max_abs_diff:.2e} gap={c.gap:.2e}"
                         for kind, c in results)


def check_majorization():
    """Nielsen's criterion against the E1 floor on 10^4 random spectra, and
    E1 <= Ep <= S on 10^3 more (d <= 32, seed 20240917)."""
    rng = np.random.default_rng(20240917)

    def spectrum():
        vals = np.sort(rng.random(int(rng.integers(1, 33))))[::-1]
        return vals / vals.sum()

    mismatches = 0
    for _ in range(10_000):
        vals = spectrum()
        m_best = 0
        for m in range(1, vals.size + 2):
            if not nielsen_transformable(vals, m):
                break
            m_best = m
        mismatches += m_best != single_copy_E1(float(vals[0])).M_max
    ep_bad = 0
    for _ in range(1_000):
        vals = spectrum()
        ep = probabilistic_Ep(vals).Ep_bits
        shannon = float(-(vals * np.log2(vals, where=vals > 0,
                                         out=np.zeros_like(vals))).sum())
        ep_bad += not (single_copy_E1(float(vals[0])).E1_bits - 1e-9 <= ep <= shannon + 1e-9)
    return mismatches == 0 and ep_bad == 0, (
        f"nielsen-vs-floor mismatches: {mismatches}/10000;"
        f" Ep sandwich violations: {ep_bad}/1000")


CHECKS = {"integral": check_integral, "oracle": check_oracle,
          "majorization": check_majorization}


def _cmd_check(args):
    wanted = [name for name in CHECKS if getattr(args, name)] or list(CHECKS)
    results = [(name, *CHECKS[name]()) for name in wanted]
    _emit_text("".join(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}\n"
                       for name, ok, detail in results), args.out)
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_CHECK


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
