"""Record the benchmark's reference outputs and its baseline.

Run from the repository root:

    python3 perfbench/record.py references   # reference/<workload>.json
    python3 perfbench/record.py baseline     # baseline.json

``references`` runs every CLI call of every draw once and stores the parsed
outputs; it writes nothing when an output fails the seed-independent checks.
``baseline`` runs ``run.py`` once per workload and seed, untraced for the
baseline seeds and traced for the traced seeds, and once on the held-out
seed. It prints each end-to-end metric's median and spread (interquartile
range over median) next to its bound, and writes every metric's median,
quartiles and sample count to ``baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import NullTracer  # noqa: E402


def record_references() -> int:
    from worker import run_cli

    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    cache: dict[tuple, tuple[int, str, float]] = {}
    status = 0
    tables = {}
    for workload in wl.WORKLOADS:
        table = {}
        for index in range(wl.N_DRAWS):
            params = wl.draw(index)
            outs = []
            for argv in wl.cli_calls(workload, params):
                key = tuple(argv)
                if key not in cache:
                    t0 = time.perf_counter()
                    code, text = run_cli(argv)
                    cache[key] = (code, text, time.perf_counter() - t0)
                code, text, secs = cache[key]
                failed, msgs = (wl.n_operations(argv), [f"exit code {code}"]) if code else \
                    wl.check_output(NullTracer(), argv, text, None)
                print(f"{workload} draw {index:2d} {secs:6.2f}s {' '.join(argv)}"
                      f"{'' if not failed else ' FAILED ' + '; '.join(msgs)}", flush=True)
                if failed:
                    status = 1
                outs.append(json.loads(text) if code == 0 else None)
            table[str(index)] = outs
        tables[workload] = table
    if status:
        return status
    for workload, table in tables.items():
        with open(wl.reference_path(workload), "w") as fh:
            json.dump(table, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    shown = "" if trace else " " + " ".join(
        f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
    print(f"{workload} seed {seed} trace {trace}: {time.perf_counter() - t0:5.1f}s{shown}"
          f" failed={res['failed']}/{res['attempted']}", flush=True)
    return res


def record_baseline() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results, held_out = {}, {}
    failed = attempted = 0
    for workload in wl.WORKLOADS:
        runs = [_run(spec, workload, seed, 0) for seed in wl.BASELINE_SEEDS]
        traced = [_run(spec, workload, seed, 1) for seed in wl.TRACED_SEEDS]
        held = _run(spec, workload, wl.HELD_OUT_SEED, 0)
        held_out[workload] = {k: v["value"] for k, v in held["metrics"].items()}
        stats = {"end_to_end": {}, "per_layer": {}}
        for name, bound in bounds.items():
            st = _quartiles([r["metrics"][name]["value"] for r in runs])
            stats["end_to_end"][name] = st
            mark = "" if st["spread"] <= bound / 3 else " <-- above a third of its bound"
            print(f"  {workload} {name}: median {st['median']:.4g} spread "
                  f"{st['spread']:.3f} bound {bound}{mark}", flush=True)
        for name in traced[0]["metrics"]:
            stats["per_layer"][name] = _quartiles([r["metrics"][name]["value"] for r in traced])
        everything = [*runs, *traced, held]
        stats["error_rate"] = (sum(r["failed"] for r in everything)
                               / sum(r["attempted"] for r in everything))
        failed += sum(r["failed"] for r in everything)
        attempted += sum(r["attempted"] for r in everything)
        results[workload] = stats
    print(f"error_rate over all runs: {failed}/{attempted}")
    (HERE / "baseline.json").write_text(json.dumps({
        "seeds": wl.BASELINE_SEEDS, "traced_seeds": wl.TRACED_SEEDS,
        "run_seconds": spec["run_seconds"], "held_out_seed": wl.HELD_OUT_SEED,
        "held_out": held_out, "workloads": results}, indent=1) + "\n")
    return int(failed > 0)


def main() -> int:
    what = sys.argv[1:]
    if what == ["references"]:
        return record_references()
    if what == ["baseline"]:
        return record_baseline()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
