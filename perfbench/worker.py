"""One workload in a fresh process: a closed loop of CLI passes with one caller.

Usage (from the repository root; ``run.py`` starts it):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Each pass calls ``singlecopy.cli.run`` for every CLI call of the workload,
then checks the outputs outside the timed region. With ``--trace 1`` every
pass is followed by a traced replay of the same calls. Prints one JSON
object on its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

TRACE_DIR = ROOT / ".perfbench_out"


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_info() -> list[dict]:
    """Version string and thread count of each OpenBLAS that numpy and scipy load."""
    import numpy
    import scipy

    found = []
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    found.append({"user": mod.__name__, "threads": int(get_threads()),
                                  "config": get_config().decode()})
                    break
    return found


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one CLI call."""
    from singlecopy.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except Exception:  # an uncaught error exits the real CLI with code 1
            code = 1
    return code, out.getvalue()


class Outcome:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, argv, ops: int, failed: int, msgs: list[str]) -> None:
        self.attempted += ops
        self.failed += failed
        room = max(0, 20 - len(self.messages))
        self.messages.extend(f"{' '.join(argv)}: {m}" for m in msgs[:room])

    def check(self, tr, argv, code: int, text: str, reference) -> None:
        ops = wl.n_operations(argv)
        if code != 0:
            self.add(argv, ops, ops, [f"exit code {code}"])
            return
        from singlecopy.errors import ToolkitError

        try:
            failed, msgs = wl.check_output(tr, argv, text, reference)
        except (ToolkitError, ValueError, KeyError, TypeError, IndexError) as exc:
            failed, msgs = ops, [f"output not checkable: {type(exc).__name__}: {exc}"]
        self.add(argv, ops, failed, msgs)


def traced_replay(tracer: Tracer, pass_no: int, calls, results, outcome: Outcome) -> None:
    """Replay one pass with spans; its outputs must equal the CLI outputs exactly.

    The fits of the output checks run after the timed replay, still traced,
    as ``asymptotics.fit``.
    """
    texts = []
    with tracer.traced_pass(pass_no):
        for argv in calls:
            try:
                texts.append(wl.replay(tracer, argv))
            except Exception as exc:  # a failed replay is a failed operation
                texts.append(f"replay raised {type(exc).__name__}: {exc}")
    for argv, text, (code, cli_text) in zip(calls, texts, results):
        ops = wl.n_operations(argv)
        if code == 0 and text != cli_text:
            outcome.add(argv, ops, ops, ["replay output differs from the CLI output"])
        else:
            outcome.check(tracer, argv, code, text, None)


def layer_metrics(tracer: Tracer, untraced_walls: list[float]) -> dict:
    """Medians over the traced passes of span self times; counts of one pass."""
    passes = sorted(tracer.pass_walls)
    per_pass = [tracer.self_times(p) for p in passes]
    out = {}
    for name in wl.SPANS:
        out[f"{name}_s"] = statistics.median(t.get(name, (0.0, 0.0))[0] for t in per_pass)
        out[f"{name}_cpu_s"] = statistics.median(t.get(name, (0.0, 0.0))[1] for t in per_pass)
    for name in wl.COUNTS:
        values = {tracer.counts[p].get(name, 0) for p in passes}
        if len(values) != 1:
            raise RuntimeError(f"count {name} differs between passes: {sorted(values)}")
        out[name] = values.pop()
    out["trace.coverage"] = statistics.median(tracer.coverage[p] for p in passes)
    out["trace.overhead_s"] = (statistics.median(tracer.pass_walls.values())
                               - statistics.median(untraced_walls))
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    import numpy
    import scipy
    import singlecopy

    if Path(singlecopy.__file__).resolve().parents[1] != ROOT / "src":
        print(f"singlecopy was imported from {singlecopy.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas = blas_info()
    if any(b["threads"] > nproc for b in blas):
        print(f"refusing to run: BLAS would start more threads than nproc={nproc}: {blas}",
              file=sys.stderr)
        return 2

    reference = wl.load_reference(args.workload)
    outcome = Outcome()
    tracer = Tracer() if args.trace else None
    walls, cpus = [], []
    # Every pass uses the seed's draw, so the run's length never changes its inputs.
    index = wl.draw_index(args.seed)
    calls = wl.cli_calls(args.workload, wl.draw(index))
    refs = reference[str(index)]
    if tracer is not None:
        # Warm the process first, so that the traced and untraced passes
        # compared for trace.overhead_s are both warm.
        for argv in calls:
            run_cli(argv)
    start = time.perf_counter()
    pass_no = 0
    # Closed loop: start another pass only while it is predicted, at the mean
    # pass time so far, to end within --seconds. At least one pass runs.
    while pass_no == 0 or (time.perf_counter() - start) * (pass_no + 1) / pass_no <= args.seconds:
        t0, c0 = time.perf_counter(), _cpu()
        results = [run_cli(argv) for argv in calls]
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu() - c0)
        if pass_no == 0:
            # What a CLI user, with one command per process, sees. Later
            # passes add allocator fragmentation that varies with their count.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for argv, (code, text), ref in zip(calls, results, refs):
            outcome.check(NullTracer(), argv, code, text, ref)
        if tracer is not None:
            traced_replay(tracer, pass_no, calls, results, outcome)
        pass_no += 1

    result = {"walls": walls, "cpus": cpus,
              "peak_rss_mb": peak_rss_mb,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "messages": outcome.messages,
              "environment": {"nproc": nproc, "python": platform.python_version(),
                              "numpy": numpy.__version__, "scipy": scipy.__version__,
                              "blas": blas}}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, walls)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path)
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
