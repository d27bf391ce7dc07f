"""Workloads of the singlecopy benchmark: inputs, CLI calls, traced replay, output checks.

Four workloads, each dominated by a different layer:

* ``scan_xx_critical``: ``scan`` of xx(a). Closed-form coefficients and a
  symmetric block, so the dense spectrum is almost all of the time.
* ``scan_aniso``: ``scan`` of ising (critical) and xy(a, gamma) (gapped).
  Per-``l`` quadrature coefficients and non-symmetric blocks.
* ``report_ep``: ``analyze --with-ep`` at L=256 for xx(a) (with sectors) and
  ising. The ``Ep`` linear program dominates; the spectrum is about 1%.
* ``oracle_ed``: ``oracle`` gaussian-vs-ed at n=12, L=6. The only workload in
  which the ``oracle`` layer (Fock build and dense ``eigh``) works.

Inputs come from ``N_DRAWS`` parameter draws. A run with seed ``s`` uses draw
``s % N_DRAWS`` on every pass, so every seed reaches only draws whose
reference outputs are recorded in ``reference/``, and the run's length changes
only how many samples it takes, never its inputs.

This module imports ``singlecopy`` lazily, inside the functions that need it,
so that ``run.py`` can import it without loading the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

WORKLOADS = ("scan_xx_critical", "scan_aniso", "report_ep", "oracle_ed")
N_DRAWS = 32
BASELINE_SEEDS = tuple(range(1, 11))
TRACED_SEEDS = tuple(range(1, 6))
HELD_OUT_SEED = 16          # its draw is not one of the baseline seeds' draws

L_MIN, L_MAX = 64, 2048     # geometric_grid(64, 2048): 11 block lengths
REPORT_L = 256
EP_DIMS = 1024
ORACLE_N, ORACLE_L = 12, 6
ABS_TOL = 1e-12             # the CLI default --tol

# Reference comparison: |x - ref| <= REF_ATOL + REF_RTOL * |ref|.
REF_RTOL = 1e-8
REF_ATOL = 1e-10

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Per-layer metrics of the traced replay. Each span gives ``<span>_s`` and
# ``<span>_cpu_s`` (self time: the span minus its child spans).
SPANS = ("model.classify", "toeplitz.coefficients", "toeplitz.build_T", "toeplitz.spectrum",
         "entangle.leading_eigenvalues", "entangle.ep", "entangle.sectors",
         "asymptotics.scan", "asymptotics.fit",
         "oracle.gaussian", "oracle.fock_build", "oracle.ed", "serialize.emit")
# Counts of one pass, computed from array sizes; they repeat exactly.
COUNTS = ("model.zeros", "toeplitz.coeffs", "toeplitz.quadrature_tables", "toeplitz.blocks",
          "toeplitz.svd_flops", "toeplitz.block_bytes", "entangle.lp_vars",
          "entangle.lp_constraints", "oracle.fock_dim", "oracle.eigh_flops")


def draw(index: int) -> dict:
    """Preset parameters of draw ``index``.

    xx ``a`` in [1.5, 3] (critical); xy ``a`` in [1.5, 3] and ``gamma`` in
    [0.3, 0.7] (gapped). ``random.Random(int).random()`` is stable across
    Python versions.
    """
    rng = random.Random(index)
    return {
        "xx_a": round(1.5 + 1.5 * rng.random(), 4),
        "xy_a": round(1.5 + 1.5 * rng.random(), 4),
        "xy_gamma": round(0.3 + 0.4 * rng.random(), 4),
    }


def draw_index(seed: int) -> int:
    """Draw used by every pass of a run with ``seed``."""
    return seed % N_DRAWS


def cli_calls(workload: str, params: dict) -> list[list[str]]:
    """The CLI argument vectors of one pass of ``workload``."""
    xx = ["--model", "xx", "--a", repr(params["xx_a"])]
    if workload == "scan_xx_critical":
        return [["scan", *xx]]
    if workload == "scan_aniso":
        return [["scan", "--model", "ising"],
                ["scan", "--model", "xy", "--a", repr(params["xy_a"]),
                 "--gamma", repr(params["xy_gamma"])]]
    ep = ["--L", str(REPORT_L), "--with-ep", "--ep-dims", str(EP_DIMS)]
    if workload == "report_ep":
        return [["analyze", *xx, *ep, "--with-sectors"],
                ["analyze", "--model", "ising", *ep]]
    if workload == "oracle_ed":
        return [["oracle", *xx, "--n", str(ORACLE_N), "--L", str(ORACLE_L)]]
    raise ValueError(f"unknown workload {workload!r}")


def _model(argv: list[str]):
    from singlecopy.model import build_model

    opts = dict(zip(argv[1::2], argv[2::2]))
    kwargs = {k: float(opts[f"--{k}"]) for k in ("a", "gamma") if f"--{k}" in opts}
    return build_model(opts["--model"], **kwargs)


def grid_size() -> int:
    from singlecopy.asymptotics import geometric_grid

    return len(geometric_grid(L_MIN, L_MAX))


def n_operations(argv: list[str]) -> int:
    """Operations of one CLI call: one per scan row, else one."""
    return grid_size() if argv[0] == "scan" else 1


# ---------------------------------------------------------------------------
# traced replay through the layers' public functions

def _replay_scan(tr, model) -> str:
    from singlecopy.asymptotics import ScanRow, ScanSeries, geometric_grid
    from singlecopy.entangle import single_copy_E1
    from singlecopy.model import classify_criticality
    from singlecopy.serialize import dumps, scan_to_dict
    from singlecopy.toeplitz import block_spectrum, build_T, coefficient_table

    grid = geometric_grid(L_MIN, L_MAX)
    with tr.span("asymptotics.scan"):
        with tr.span("model.classify"):
            profile = classify_criticality(model)
        tr.count("model.zeros", len(profile.fermi_points) + len(profile.marginal_points))
        with tr.span("toeplitz.coefficients"):
            table = coefficient_table(model, grid[-1], ABS_TOL, profile)
        _count_table(tr, table)
        rows = []
        for L in grid:
            with tr.span("toeplitz.build_T"):
                T = build_T(model, L, ABS_TOL, table)
            _count_block(tr, T)
            with tr.span("toeplitz.spectrum"):
                spec = block_spectrum(T)
            sc = single_copy_E1(ln_alpha1=spec.ln_alpha1)
            rows.append(ScanRow(L=L, e1_cont_bits=sc.e1_cont_bits, E1_bits=sc.E1_bits,
                                entropy_bits=spec.entropy_bits, ln_absdet_T=spec.ln_absdet_T,
                                rms_term_bits=spec.rms_term_bits))
        series = ScanSeries(model=model, grid=grid, rows=tuple(rows))
    with tr.span("serialize.emit"):
        return dumps(scan_to_dict(series))


def _replay_analyze(tr, model, with_sectors: bool) -> str:
    from singlecopy.entangle import (leading_eigenvalues, probabilistic_Ep,
                                     report_from_spectrum, sector_decompose)
    from singlecopy.model import classify_criticality
    from singlecopy.serialize import dumps, report_to_dict
    from singlecopy.toeplitz import block_spectrum, build_T, coefficient_table

    with tr.span("model.classify"):
        profile = classify_criticality(model)
    tr.count("model.zeros", len(profile.fermi_points) + len(profile.marginal_points))
    with tr.span("toeplitz.coefficients"):
        table = coefficient_table(model, REPORT_L, ABS_TOL, profile)
    _count_table(tr, table)
    with tr.span("toeplitz.build_T"):
        T = build_T(model, REPORT_L, ABS_TOL, table)
    _count_block(tr, T)
    with tr.span("toeplitz.spectrum"):
        spec = block_spectrum(T)
    base = report_from_spectrum(model, spec)
    with tr.span("entangle.leading_eigenvalues"):
        vals = leading_eigenvalues(spec.mu, EP_DIMS)
    tail = max(0.0, 1.0 - float(vals.sum()))
    with tr.span("entangle.ep"):
        ep = probabilistic_Ep(vals, M_max=EP_DIMS, tail_weight=tail)
    cap = min(EP_DIMS, vals.size)
    tr.count("entangle.lp_vars", cap)
    tr.count("entangle.lp_constraints", cap)    # cap-1 tail-sum rows + normalisation
    truncated = spec.L >= 63 or 2 ** spec.L > vals.size or ep.truncated
    sectors = None
    if with_sectors and model.isotropic:
        with tr.span("entangle.sectors"):
            sectors = sector_decompose(spec.mu, "plus")
    rep = replace(base, Ep_bits=ep.Ep_bits, sectors=sectors,
                  diagnostics={**base.diagnostics, "Ep_truncated": bool(truncated)})
    with tr.span("serialize.emit"):
        return dumps(report_to_dict(rep))


def _replay_oracle(tr, model, n: int, L: int) -> str:
    import numpy as np
    from singlecopy import oracle
    from singlecopy.entangle import leading_eigenvalues
    from singlecopy.errors import DegenerateGroundStateError
    from singlecopy.serialize import comparison_to_dict, dumps

    build = oracle.fock_hamiltonian

    def traced_build(*args, **kwargs):
        with tr.span("oracle.fock_build"):
            H = build(*args, **kwargs)
        tr.count("oracle.fock_dim", H.shape[0])
        tr.count("oracle.eigh_flops", 9 * H.shape[0] ** 3)   # symmetric QR with vectors
        return H

    with tr.span("oracle.gaussian"):
        gauss = oracle.finite_gaussian_ground(model, n, L)
    # The functions compare_oracle calls; exact_diag_ground would hide the
    # many-body gap the CLI prints. The Fock build inside _ed_ground is
    # traced as a child span of oracle.ed.
    oracle.fock_hamiltonian = traced_build
    try:
        with tr.span("oracle.ed"):
            evals, psi = oracle._ed_ground(model, n)
            reduced = oracle._reduced_spectrum(psi, n, L)
    finally:
        oracle.fock_hamiltonian = build
    gap = float(evals[1] - evals[0])
    if gap <= oracle._ED_GAP_TOL:
        raise DegenerateGroundStateError(f"degenerate ground state (many-body gap {gap:.3e})")
    with tr.span("entangle.leading_eigenvalues"):
        gauss_top = leading_eigenvalues(gauss.mu, oracle._TOP)
    a, b = oracle._top64(gauss_top), oracle._top64(reduced)
    diff = float(np.abs(a - b).max())
    cmp = oracle.OracleComparison(n, L, gap, diff, (a, b), "gaussian-vs-ed",
                                  diff > 1e-6 and gap > 1e-6)
    with tr.span("serialize.emit"):
        return dumps(comparison_to_dict(cmp))


def _count_table(tr, table) -> None:
    tr.count("toeplitz.coeffs", table.t.size)
    tr.count("toeplitz.quadrature_tables", int(table.method == "quadrature"))


def _count_block(tr, T) -> None:
    L = T.shape[0]
    tr.count("toeplitz.blocks", 1)
    tr.count("toeplitz.block_bytes", T.nbytes)
    tr.count("toeplitz.svd_flops", 8 * L ** 3 // 3)   # values-only SVD, ~8/3 n^3


def replay(tr, argv: list[str]) -> str:
    """Replay one CLI call through the layers' public functions.

    Returns the text the CLI writes for ``argv``.
    """
    model = _model(argv)
    if argv[0] == "scan":
        return _replay_scan(tr, model)
    if argv[0] == "analyze":
        return _replay_analyze(tr, model, "--with-sectors" in argv)
    if argv[0] == "oracle":
        return _replay_oracle(tr, model, ORACLE_N, ORACLE_L)
    raise ValueError(f"no replay for {argv[0]!r}")


# ---------------------------------------------------------------------------
# output checks

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def _close(out, ref, where: str, bad: list[str]) -> None:
    """Compare ``out`` with ``ref``; keys absent from ``ref`` are not checked."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            bad.append(f"{where}: expected an object")
            return
        for key, val in ref.items():
            if key == "version":
                continue
            if key not in out:
                bad.append(f"{where}.{key}: missing")
            else:
                _close(out[key], val, f"{where}.{key}", bad)
    elif isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            bad.append(f"{where}: expected a list of {len(ref)}")
            return
        for i, (o, r) in enumerate(zip(out, ref)):
            _close(o, r, f"{where}[{i}]", bad)
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        ok = (isinstance(out, (int, float)) and not isinstance(out, bool)
              and abs(out - ref) <= REF_ATOL + REF_RTOL * abs(ref))
        if not ok:
            bad.append(f"{where}: {out!r} != {ref!r}")
    elif out != ref:
        bad.append(f"{where}: {out!r} != {ref!r}")


def _scan_invariants(argv: list[str], out: dict) -> list[str]:
    """Seed-independent scan checks, with the windows of tests/test_acceptance.py."""
    from singlecopy.asymptotics import fit_log, saturation_test
    from singlecopy.serialize import scan_from_dict

    series = scan_from_dict(out)
    model = argv[argv.index("--model") + 1]
    bad = []
    if model == "xx":
        # The e1_cont slope window [0.137, 0.197] is not checked: the test
        # holds it for a = 2 only, and over (256, 2048) it fails for some
        # drawn a. The row values are still compared with the references.
        s2 = fit_log(series, "entropy_bits", window=(256, 2048)).slope
        if not 0.313 <= s2 <= 0.353:
            bad.append(f"xx entropy slope {s2:.4f} outside [0.313, 0.353]")
        top = series.rows[-1]
        ratio = top.e1_cont_bits / top.entropy_bits
        if not 0.40 <= ratio <= 0.55:
            bad.append(f"xx e1/S at L={top.L} = {ratio:.4f} outside [0.40, 0.55]")
    elif model == "ising":
        s1 = fit_log(series, "e1_cont_bits", window=(128, 2048)).slope
        e1 = [r.e1_cont_bits for r in series.rows]
        if not (s1 > 0.03 and all(b > a for a, b in zip(e1, e1[1:]))):
            bad.append(f"ising e1_cont slope {s1:.4f} <= 0.03 or not increasing")
    elif model == "xy":
        for q in ("e1_cont_bits", "entropy_bits"):
            if not saturation_test(series, q, 0.01):
                bad.append(f"xy {q} not saturated over the top octave")
    return bad


def check_output(tr, argv: list[str], text: str, reference) -> tuple[int, list[str]]:
    """Check one CLI output. Returns (failed operations, messages).

    ``reference`` is the recorded output for the same draw, or None.
    Scan rows fail one by one; a scan-wide invariant fails every row.
    """
    out = json.loads(text)
    msgs: list[str] = []
    if argv[0] == "scan":
        rows = out["rows"]
        if len(rows) != grid_size():
            return grid_size(), [f"{len(rows)} rows, expected {grid_size()}"]
        if reference is not None:
            _close(out, {k: v for k, v in reference.items() if k != "rows"}, "output", msgs)
            if msgs:
                return len(rows), msgs
        failed = 0
        for i, row in enumerate(rows):
            bad = [f"row L={row['L']}: {row['error']}"] if "error" in row else []
            if reference is not None:
                _close(row, reference["rows"][i], f"rows[{i}]", bad)
            failed += bool(bad)
            msgs.extend(bad)
        with tr.span("asymptotics.fit"):
            bad = _scan_invariants(argv, out)
        if bad:
            return len(rows), msgs + bad
        return failed, msgs
    if reference is not None:
        _close(out, reference, "output", msgs)
    if argv[0] == "analyze":
        e1, ep, s = out["E1_bits"], out["Ep_bits"], out["entropy_bits"]
        if not (e1 - 1e-9 <= ep <= s + 1e-9):
            msgs.append(f"E1={e1} <= Ep={ep} <= S={s} violated")
    elif argv[0] == "oracle":
        if not (out["max_abs_diff"] < 1e-8 and out["gap"] > 1e-6 and not out["defect"]):
            msgs.append(f"oracle diff={out['max_abs_diff']:.2e} gap={out['gap']:.2e}")
    return int(bool(msgs)), msgs
