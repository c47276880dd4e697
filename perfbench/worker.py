"""One workload process: set up, say so, then run timed passes.

Started by run.py, which times the process from its start until the
monotonic clock reading on the ``PERFBENCH ready`` line (set-up), reads
the host factor on the ``PERFBENCH host_factor`` line that follows it
when untraced (see reference.py), and reads the ``PERFBENCH result``
line at the end.  Other lines on stdout (the CLI's own output) are
ignored.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib.metadata import version

import numpy as np
import scipy

import probe
from reference import REFERENCE_S, Reference
from workloads import WORKLOADS  # imports crossdiff and click: part of set-up

# A run measures at least this many untraced passes (and, traced, this
# many traced ones), however long they take.
MIN_PASSES = 3


def emit(tag, payload):
    print(f"PERFBENCH {tag} {json.dumps(payload)}", flush=True)


def run_passes(workload, trace, seconds, reference=None):
    """Closed loop of passes for `seconds`; a traced run alternates
    untraced and traced passes so both see the same machine state.
    With a `reference`, its kernel runs before the first pass and after
    every untraced pass; a pass's `ref_s` is the mean kernel time of the
    samples just before and just after it."""
    pr = probe.Probe()
    passes = []
    ref_before = reference.sample(0.0) if reference is not None else None
    start = time.perf_counter()
    while True:
        done = sum(1 for p in passes if p["traced"] == trace)
        if done >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
        traced = trace and len(passes) % 2 == 1
        first = len(pr.runs.entries)
        pr.install(traced)
        t0 = time.perf_counter()
        try:
            problems = workload.run_pass(pr.runs.entries)
        finally:
            wall = time.perf_counter() - t0
            pr.remove()
        runs = pr.runs.entries[first:]
        passes.append({
            "traced": traced, "wall_s": wall, "problems": problems,
            "run_s": sum(r["elapsed"] for r in runs),
            "cell_steps": sum(r["cell_steps"] for r in runs),
            "steps": sum(r["steps"] for r in runs),
            "newton_solves": sum(r["newton_solves"] for r in runs),
            "records": sum(r["records"] for r in runs),
            "bytes_written": getattr(workload, "bytes_written", 0),
        })
        if reference is not None and not traced:
            ref_after = reference.sample(wall)
            passes[-1]["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
    return pr, passes


def end_to_end(passes):
    """Median pass time and solver throughput: as measured (raw), and
    with each pass rescaled by the reference kernel run around it (see
    reference.py).  The host factor is the median kernel time over
    REFERENCE_S."""
    timed = [p for p in passes if not p["traced"]]
    if not all(p["run_s"] > 0 for p in timed):
        raise RuntimeError("a pass made no timed solver.run call; "
                           "a run site in probe.RUN_SITES is missing")
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "cell_steps_per_s": statistics.median(
            p["cell_steps"] / p["run_s"] for p in timed),
    }
    speed = [REFERENCE_S / p["ref_s"] for p in timed]
    metrics = {
        "wall_s": statistics.median(
            p["wall_s"] * v for p, v in zip(timed, speed)),
        "cell_steps_per_s": statistics.median(
            p["cell_steps"] / (p["run_s"] * v) for p, v in zip(timed, speed)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    factor = statistics.median(p["ref_s"] for p in timed) / REFERENCE_S
    return metrics, raw, factor


def per_layer(workload, pr, passes):
    """Per traced pass: calls, total and self seconds of every span,
    the solver counts, and the tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    table = pr.spans.table
    counts = dict(pr.spans.counts)
    counts["solver.accepted_steps"] = sum(p["steps"] for p in traced)
    counts["solver.newton_solves"] = sum(p["newton_solves"] for p in traced)
    out = {}
    for name, (calls, total, self_s) in table.items():
        out[f"{name}.calls"] = calls / n
        out[f"{name}.total_s"] = total / n
        out[f"{name}.self_s"] = self_s / n
    spsolves = table["solver.spsolve"][0]
    out["solver.spsolve.nnz"] = counts["solver.spsolve.nnz"] / spsolves if spsolves else 0.0
    for name in ("solver.accepted_steps", "solver.attempted_steps",
                 "solver.newton_solves"):
        out[name] = counts[name] / n
    attempted = counts["solver.attempted_steps"]
    out["solver.accept_ratio"] = (counts["solver.accepted_steps"] / attempted
                                  if attempted else 1.0)
    out["cli.bytes_written"] = statistics.mean(p["bytes_written"] for p in traced)
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(untraced))
    mismatches = probe.count_identities(
        table, counts, sum(p["records"] for p in traced), workload.scheme,
        workload.reaction, workload.per_pass, n, pr.missing)
    out["trace.count_mismatches"] = len(mismatches)
    return out, mismatches


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, "full", args.workdir)
    emit("ready", time.monotonic())
    reference = None
    if not args.trace:
        # run.py rescales this process's set-up time as every pass is
        # rescaled; CPU time so far stands for the set-up's length.
        reference = Reference()
        emit("host_factor",
             reference.sample(time.process_time()) / REFERENCE_S)
    if args.setup_only:
        return 0

    # Warm lazy imports and first-call paths at a size no cache can share.
    run_passes(cls(args.seed, "tiny", os.path.join(args.workdir, "warmup")),
               bool(args.trace), 0.0, reference)
    pr, passes = run_passes(workload, bool(args.trace), args.seconds, reference)
    result = {"passes": passes, "env": environment()}
    if args.trace:
        result["metrics"], mismatches = per_layer(workload, pr, passes)
        result["mismatches"] = mismatches
        result["spans"] = pr.spans.table
    else:
        result["metrics"], result["raw"], result["host_factor"] = end_to_end(passes)
    emit("result", result)
    return 0


def environment():
    """Library versions and the BLAS in use, as this process sees them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = fn()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
