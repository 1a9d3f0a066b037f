"""seqstate benchmark: one command, three workloads.

    python3 bench/run.py --workload encoder-train --seed 1 --seconds 35 --trace 0
    python3 bench/run.py            # every workload, each in its own process

With ``--trace 0`` a run prints the end-to-end metrics, the same three on
every workload; with ``--trace 1`` it runs one round untraced and one
traced, and prints the per-layer metrics and the tracing overhead, again
the same set on every workload. Every metric is printed as ``name value unit``;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run
(environment, metrics, operation counts) goes to ``bench/results/``, and
the traced run's spans beside it.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, for the benchmark and the CLI processes it starts: on a
# 2-vCPU machine shared with others, two threads on these small matrices
# were slower and far noisier. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"


def import_program() -> None:
    """Import seqstate from this checkout's sources, or exit with code 2."""
    if not (SRC / "seqstate" / "__init__.py").is_file():
        print(f"error: no seqstate sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import seqstate

    if Path(seqstate.__file__).resolve().parent != (SRC / "seqstate").resolve():
        print(f"error: imported seqstate from {seqstate.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def blas_threads():
    """Threads the loaded OpenBLAS uses, read through its own API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def run_workload(args) -> int:
    import workloads
    import layers
    from spans import Tracer

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    workdir = BENCH / "work" / f"{run_id}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = workloads.Context(seed=args.seed, size=workloads.SIZES[args.size],
                            workdir=workdir, src=SRC)
    wl = workloads.WORKLOADS[args.workload](ctx)
    try:
        setup_s = wl.setup()
        if args.trace:
            untraced_s = timed_round(wl, 0, traced=False)
            tracer = Tracer(run_id, workdir / "spans")
            layers.install(tracer)
            try:
                traced_s = timed_round(wl, 1, traced=True)
            finally:
                tracer.unpatch()
            tracer.gather()
            rows = tracer.write(RESULTS / f"{run_id}.spans.jsonl.gz")
            metrics = layers.layer_metrics(layers.Rows(rows))
            metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
            span_summary = layers.summarize(rows)
        else:
            # whole rounds, stopping before one that would end past --seconds
            round_s: list[float] = []
            while True:
                round_s.append(timed_round(wl, len(round_s), traced=False))
                if sum(round_s) * (len(round_s) + 1) / len(round_s) > args.seconds:
                    break
            metrics = {"setup_s": (setup_s, "s"),
                       "round_s": (statistics.median(round_s), "s"),
                       "peak_rss_mb": (wl.peak_rss_mb(), "MB")}
            span_summary = None
        wl.checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    for err in ctx.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    result = {
        "correct": not ctx.errors,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"run_id": run_id, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "environment": environment(), "errors": ctx.errors,
              "spans": span_summary, **result}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{run_id}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                            encoding="utf-8")
    print(json.dumps(result))
    return 0


def timed_round(wl, index: int, traced: bool) -> float:
    gc.collect()  # each round starts without the previous round's garbage
    t0 = time.perf_counter()
    wl.round(index, traced=traced)
    return time.perf_counter() - t0


def run_all(args) -> int:
    """Every workload in its own process, as the single-workload runs do."""
    code = 0
    for name in ("encoder-train", "policy-offline", "cli-pipeline"):
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--size", args.size])
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "encoder-train", "policy-offline", "cli-pipeline"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the work directory is removed
    # and the CLI processes of a round are killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import_program()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
