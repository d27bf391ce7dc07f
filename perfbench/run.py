"""singlecopy benchmark: one workload, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times set-up (fresh interpreters importing
``singlecopy``), then runs the workload in one fresh process for ``S``
seconds and reports the end-to-end metrics. With ``--trace 1`` the same
process also replays each pass through the layers' public functions and the
run reports the per-layer metrics. Every metric is printed with its unit; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_SAMPLES = 7           # timed fresh interpreters per run, after one warm-up
TIME_LIMIT_S = 170.0        # the whole run, set-up included

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in wl.SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}_cpu_s"] = "s"
    for name in wl.COUNTS:
        units[name] = {"toeplitz.svd_flops": "flop", "oracle.eigh_flops": "flop",
                       "toeplitz.block_bytes": "byte"}.get(name, "count")
    units["trace.coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # String hashing changes the order, and so the peak memory, of some
    # allocations: with a random hash seed the first report_ep pass peaks
    # anywhere from 183 to 199 MiB.
    env["PYTHONHASHSEED"] = "0"
    return env


def thread_request_over(nproc: int) -> str | None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > nproc:
            return f"{var}={value}"
    return None


def setup_times(deadline: float) -> list[float]:
    """Wall seconds from a fresh interpreter until ``import singlecopy`` completes."""
    # The child reads the system-wide monotonic clock once the import is done:
    # timing the whole subprocess.run would add interpreter exit and the
    # 50 ms polling steps of its timeout wait.
    cmd = [sys.executable, "-c",
           "import time, singlecopy; print(time.clock_gettime(time.CLOCK_MONOTONIC))"]
    env = child_env()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True,
                              text=True, timeout=deadline - time.monotonic())
        if i:                                   # the first one warms the file cache
            samples.append(float(proc.stdout) - t0)
    return samples


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (subprocess.SubprocessError, OSError):
        return None
    return proc.stdout.strip() or None


def high_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "n/a"
    return f"p{100 * (n - 10) // n}={sorted(values)[n - 11]:.6g}"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "singlecopy" / "__init__.py").is_file():
        return fail(f"no singlecopy sources under {ROOT / 'src'}")
    if not wl.reference_path(args.workload).is_file():
        return fail(f"missing reference outputs {wl.reference_path(args.workload)}")
    nproc = len(os.sched_getaffinity(0))
    over = thread_request_over(nproc)
    if over:
        return fail(f"refusing to start more threads than nproc={nproc} ({over})")

    try:
        setup = setup_times(deadline) if args.trace == 0 else []
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=deadline - time.monotonic())
    except (subprocess.SubprocessError, OSError) as exc:
        return fail(f"workload process failed: {exc}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return fail(f"workload process exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    env = {**res["environment"], "git_sha": git_sha(), "src_sha256": src_digest(),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    print("environment " + json.dumps(env))
    print(f"operations: attempted={res['attempted']} failed={res['failed']} "
          f"error_rate={res['failed'] / res['attempted']:.6g} ratio")
    for msg in res["messages"]:
        print(f"  FAILED {msg}")

    if args.trace == 0:
        samples = {"wall_s": res["walls"], "cpu_s": res["cpus"], "setup_s": setup}
        values = {name: statistics.median(samples[name]) for name in samples}
        values["peak_rss_mb"] = res["peak_rss_mb"]
        units = END_TO_END_UNITS
        for name, xs in samples.items():
            print(f"{name}: median={values[name]:.6g} {high_percentile(xs)} n={len(xs)} s")
        print(f"peak_rss_mb: {values['peak_rss_mb']:.6g} MiB")
    else:
        values = res["layers"]
        units = per_layer_units()
        for name, unit in units.items():
            print(f"{name}: {values[name]:.6g} {unit}")
        print(f"spans written to {res['trace_file']}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
