"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Smoke-runs every workload at its tiny size, untraced and traced, checks
the span-count identities, and runs run.py once per mode to hold its
output to the metric names in BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import probe  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def installed_objects():
    """Every object the probe may replace, keyed by where it sits."""
    import importlib
    mod = importlib.import_module
    out = {(site, attr): getattr(mod(site), attr)
           for site, attr, _ in probe.SPAN_SITES}
    out.update({(site, "run"): mod(site).run for site, _ in probe.RUN_SITES})
    cli = mod("crossdiff.cli")
    out.update({("cli", cmd): getattr(cli, cmd).callback
                for cmd, _ in probe.CLI_COMMANDS})
    out.update({("steppers", k): v
                for k, v in mod("crossdiff.solver")._STEPPERS.items()})
    return out


ORIGINALS = installed_objects()


def traced_tiny(name, tmp_path):
    """Untraced and traced tiny passes; returns (workload, probe, passes)."""
    w = WORKLOADS[name](3, "tiny", str(tmp_path))
    pr, done = worker.run_passes(w, True, 0.0)
    return w, pr, done


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    name = request.param
    return (name,) + traced_tiny(name, tmp_path_factory.mktemp(name))


def test_every_tiny_pass_is_correct(traced):
    name, w, pr, passes = traced
    assert [p["problems"] for p in passes] == [[]] * len(passes)
    assert sum(p["traced"] for p in passes) == worker.MIN_PASSES


def test_probe_restores_every_site(traced):
    assert installed_objects() == ORIGINALS


def test_count_identities_hold(traced):
    name, w, pr, passes = traced
    metrics, mismatches = worker.per_layer(w, pr, passes)
    assert mismatches == []
    assert metrics["trace.count_mismatches"] == 0


def test_named_identities(traced):
    name, w, pr, passes = traced
    calls = {k: row[0] for k, row in pr.spans.table.items()}
    if name == "heat_newton":
        newton_solves = sum(p["newton_solves"] for p in passes if p["traced"])
        assert calls["solver.spsolve"] == newton_solves > 0
    if name == "explicit_skt":
        assert calls["grid.stable_dt"] > 0
    else:
        assert calls["grid.stable_dt"] == 0
    if name in ("heat_newton", "certify_diagnose"):
        assert calls["model.eval_reaction"] == 0
    for span, (n, total, self_s) in pr.spans.table.items():
        assert self_s <= total, span


def test_missed_wrapper_site_shows_as_mismatch(tmp_path, monkeypatch):
    """Dropping the spsolve site must break a count identity."""
    sites = tuple(s for s in probe.SPAN_SITES if s[1] != "spsolve")
    monkeypatch.setattr(probe, "SPAN_SITES", sites)
    w, pr, passes = traced_tiny("heat_newton", tmp_path)
    _, mismatches = worker.per_layer(w, pr, passes)
    assert [m[0] for m in mismatches] == [
        "solver.spsolve.calls == solver.newton_solves"]


def test_absent_wrapper_site_shows_as_mismatch(tmp_path, monkeypatch):
    """A site the program no longer has is skipped and reported."""
    sites = probe.SPAN_SITES + (("crossdiff.solver", "splu", "solver.spsolve"),)
    monkeypatch.setattr(probe, "SPAN_SITES", sites)
    w, pr, passes = traced_tiny("heat_newton", tmp_path)
    _, mismatches = worker.per_layer(w, pr, passes)
    assert [m[0] for m in mismatches] == [
        "wrapper site crossdiff.solver.splu exists"]


def test_tiny_inputs_follow_the_seed(tmp_path):
    a = WORKLOADS["explicit_skt"](5, "tiny", str(tmp_path))
    b = WORKLOADS["explicit_skt"](5, "tiny", str(tmp_path))
    c = WORKLOADS["explicit_skt"](6, "tiny", str(tmp_path))
    assert (a.field0.values == b.field0.values).all()
    assert not (a.field0.values == c.field0.values).all()


def test_end_to_end_rescales_by_the_host_factor():
    """A host running the reference kernel at half speed halves the
    reported time and doubles the reported throughput."""
    passes = [{"traced": False, "wall_s": w, "run_s": 0.5, "cell_steps": 100,
               "ref_s": 2 * reference.REFERENCE_S} for w in (1.0, 2.0, 3.0)]
    metrics, raw, factor = worker.end_to_end(passes)
    assert factor == 2.0
    assert raw == {"wall_s": 2.0, "cell_steps_per_s": 200.0}
    assert metrics["wall_s"] == 1.0
    assert metrics["cell_steps_per_s"] == 400.0


def test_reference_kernel_times_itself():
    assert reference.Reference().run() > 0


def run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heat_newton",
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_the_declared_metrics(trace, key):
    r = run_bench(ROOT, trace)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= worker.MIN_PASSES
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = run_bench(tmp_path, 0)
    assert r.returncode != 0
    assert r.stdout.strip() == ""
