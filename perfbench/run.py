"""crossdiff benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; crossdiff is imported from
``src/``.  Each workload runs in a fresh single-threaded process
(worker.py).  With ``--trace 0`` the last stdout line reports the
end-to-end metrics (wall_s, cell_steps_per_s, setup_s, peak_rss_mb);
with ``--trace 1`` the per-layer spans and counts.  ``attempted`` and
``failed`` count passes; a pass fails when an output check fails.  The
full record (every pass, spans, environment) goes to
``.perfbench_out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ensemble_imex", "heat_newton", "explicit_skt", "certify_diagnose")
# Processes timed from start to ready; setup_s is the median of their
# times, each rescaled by the reference kernel run right after it.
SETUP_SAMPLES = 5
# Slack over --seconds for set-up, warm-up and the last pass.
TIMEOUT_SLACK_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"wall_s": "s", "cell_steps_per_s": "1/s", "setup_s": "s",
         "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update({k: "1" for k in THREAD_VARS})
    return env


def run_worker(args, workdir, setup_only, timeout):
    """Run one worker process to its end.

    Returns (set-up seconds, host factor or None, result); the host
    factor is the reference kernel's time after set-up over its nominal
    time (reference.py).  Set-up runs from just before the process is started until the
    worker's ready line.  Both processes read CLOCK_MONOTONIC
    (time.monotonic on Linux), which is shared system-wide.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    with subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                          stdout=subprocess.PIPE) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker still running after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    setup = factor = result = None
    for line in stdout.splitlines():
        if line.startswith("PERFBENCH ready "):
            setup = float(line.split()[2]) - t0
        elif line.startswith("PERFBENCH host_factor "):
            factor = float(line.split()[2])
        elif line.startswith("PERFBENCH result "):
            result = json.loads(line[len("PERFBENCH result "):])
    if (setup is None or (factor is None and not args.trace)
            or (result is None and not setup_only)):
        raise BenchError("worker output lacks its ready, host_factor or "
                         "result line")
    return setup, factor, result


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit}


def measure(args, workdir):
    deadline = time.monotonic() + args.seconds + TIMEOUT_SLACK_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(args, workdir / "setup", True,
                                     deadline - time.monotonic())[:2])
    *sample, result = run_worker(args, workdir / "main", False,
                                 deadline - time.monotonic())
    setups.append(tuple(sample))
    result["setup_samples_s"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(
            s / factor for s, factor in setups)
        result["raw"]["setup_s"] = statistics.median(s for s, _ in setups)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "crossdiff" / "__init__.py").is_file():
        print(f"crossdiff sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, workdir)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass        # absent, or in use by another run

    passes = result["passes"]
    failed = [p for p in passes if p["problems"]]
    for p in failed:
        print(f"failed pass: {'; '.join(p['problems'])}", file=sys.stderr)
    for label, lhs, rhs in result.get("mismatches", ()):
        print(f"count mismatch: {label}: {lhs} vs {rhs}", file=sys.stderr)
    result.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, machine=machine())
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    metrics = result["metrics"]
    traced = sum(p["traced"] for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({traced} traced), failed_frac {len(failed) / len(passes):.4g}")
    print("machine " + json.dumps({**result["machine"], **result["env"]}))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    if "host_factor" in result:
        print(f"host factor {result['host_factor']:.4g}; as measured: "
              + ", ".join(f"{k} = {v:.6g} {unit(k)}"
                          for k, v in result["raw"].items()))
    print(json.dumps({
        "correct": not failed, "attempted": len(passes), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return {"cli.bytes_written": "bytes", "solver.accept_ratio": "ratio"}.get(
        name, "count")


if __name__ == "__main__":
    sys.exit(main())
