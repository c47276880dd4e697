"""Wrappers installed from outside crossdiff, at the names its modules
look functions up by at call time.

A consuming module binds most callees at import (``from .grid import
face_coefficients``), so a wrapper must go at the consumer's binding,
not at the defining module.  Every wrapper wraps the original function,
so a call is counted once however many sites share it.  Nothing under
``src/`` changes; ``remove()`` restores every original.

Two things can be installed:

* the run log, always: a thin timer around ``solver.run`` at each of
  its lookup sites, which gives the wall time of the workload's
  ``run()`` calls and the steps they accepted (``cell_steps_per_s``);
* the spans, only in a traced pass: per-layer call counts, total and
  self time, plus a few counts taken where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# (module looked up in, attribute, span name).  The span name is the
# layer that owns the function, not the module that calls it.
SPAN_SITES = (
    ("crossdiff.solver", "spsolve", "solver.spsolve"),
    ("crossdiff.solver", "face_coefficients", "grid.face_coefficients"),
    ("crossdiff.grid", "face_coefficients", "grid.face_coefficients"),
    ("crossdiff.solver", "laplacian_of_P", "grid.laplacian_of_P"),
    ("crossdiff.solver", "stable_dt", "grid.stable_dt"),
    ("crossdiff.solver", "cell_gradient", "grid.cell_gradient"),
    ("crossdiff.diagnostics", "cell_gradient", "grid.cell_gradient"),
    ("crossdiff.model", "eval_A", "model.eval_A"),
    ("crossdiff.grid", "eval_A", "model.eval_A"),
    ("crossdiff.solver", "eval_A", "model.eval_A"),
    ("crossdiff.diagnostics", "eval_A", "model.eval_A"),
    ("crossdiff.model", "eval_P", "model.eval_P"),
    ("crossdiff.grid", "eval_P", "model.eval_P"),
    ("crossdiff.solver", "eval_P", "model.eval_P"),
    ("crossdiff.solver", "eval_reaction", "model.eval_reaction"),
    ("crossdiff.attractor", "verify_structure", "model.verify_structure"),
    ("crossdiff.cli", "verify_structure", "model.verify_structure"),
    ("crossdiff.model", "compute_lambda_l", "model.compute_lambda_l"),
    # solver.run's default recorder imports norms on every run() call,
    # and cli reads diag_mod.norms, so one site covers both.
    ("crossdiff.diagnostics", "norms", "diagnostics.norms"),
    ("crossdiff.diagnostics", "energy_inequality_check",
     "diagnostics.energy_inequality_check"),
    ("crossdiff.diagnostics", "interpolation_check",
     "diagnostics.interpolation_check"),
    ("crossdiff.diagnostics", "bmo_profile", "diagnostics.bmo_profile"),
    ("crossdiff.diagnostics", "morrey_profile", "diagnostics.morrey_profile"),
    ("crossdiff.diagnostics", "decay_bound_check",
     "diagnostics.decay_bound_check"),
    ("crossdiff.attractor", "decay_bound_check",
     "diagnostics.decay_bound_check"),
    ("crossdiff.attractor", "ensemble_absorbing_ball",
     "attractor.ensemble_absorbing_ball"),
    ("crossdiff.attractor", "initial_field", "attractor.initial_field"),
    ("crossdiff.attractor", "ystar_dominance", "attractor.ystar_dominance"),
)

# Sites where solver.run is looked up: the benchmark's own calls go
# through crossdiff.solver.run.  An ensemble member is additionally an
# attractor.run span around its solver.run span.
RUN_SITES = (("crossdiff.solver", None),
             ("crossdiff.cli", None),
             ("crossdiff.attractor", "attractor.run"))

# click commands: the span wraps the command's callback, so its self
# time is manifest parsing plus artifact writing.
CLI_COMMANDS = (("verify", "cli.verify"), ("diagnose", "cli.diagnose"))

SPAN_NAMES = tuple(dict.fromkeys(
    ["solver.run", "solver.spsolve"]
    + [s for _, _, s in SPAN_SITES if s != "solver.spsolve"]
    + ["attractor.run"] + [s for _, s in CLI_COMMANDS]))

# Counted by wrappers; accepted steps and Newton solves come from the
# trajectories in the run log.
COUNT_NAMES = ("solver.spsolve.nnz", "solver.attempted_steps")


class Spans:
    """In-memory span table with a per-call stack for self time."""

    def __init__(self):
        self.table = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        row = self.table[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += d
                row[0] += 1
                row[1] += d
                row[2] += d - child
            if on_result is not None:
                on_result(args, out)
            return out

        return wrapper


class RunLog:
    """Wall time and step counts of every solver.run call."""

    def __init__(self):
        self.entries = []

    def wrap(self, fn):
        clock = time.perf_counter
        entries = self.entries

        @functools.wraps(fn)
        def timed_run(spec, field0, config, *args, **kwargs):
            t0 = clock()
            traj = fn(spec, field0, config, *args, **kwargs)
            elapsed = clock() - t0
            steps = len(traj.dt_history)
            entries.append({
                "elapsed": elapsed,
                "cell_steps": field0.values.size * steps,
                "steps": steps,
                "newton_solves": int(np.sum(traj.newton_history)),
                "records": len(traj.records),
            })
            return traj

        return timed_run


class Probe:
    """Installs the run log and, for traced passes, the spans.

    A site that no longer exists is skipped and listed in ``missing``;
    count_identities reports each one as a mismatch.
    """

    def __init__(self):
        self.runs = RunLog()
        self.spans = Spans()
        self.missing = []
        self._saved = []

    def _replace(self, obj, key, make, label):
        """Replace obj.key (obj[key] for a dict) by make(original)."""
        is_dict = isinstance(obj, dict)
        if (key not in obj) if is_dict else not hasattr(obj, key):
            if label not in self.missing:
                self.missing.append(label)
            return
        original = obj[key] if is_dict else getattr(obj, key)
        self._saved.append((obj, key, original))
        if is_dict:
            obj[key] = make(original)
        else:
            setattr(obj, key, make(original))

    def install(self, trace):
        if self._saved:
            raise RuntimeError("probe already installed")
        mod = importlib.import_module
        timed_run = self.runs.wrap(mod("crossdiff.solver").run)
        sp = self.spans
        if trace:
            traced_run = sp.wrap("solver.run", timed_run)
        for site, outer in RUN_SITES:
            fn = timed_run
            if trace:
                fn = traced_run if outer is None else sp.wrap(outer, traced_run)
            self._replace(mod(site), "run", lambda _, fn=fn: fn, f"{site}.run")
        if not trace:
            return
        for site, attr, name in SPAN_SITES:
            on_result = self._count_nnz if name == "solver.spsolve" else None
            self._replace(mod(site), attr,
                          lambda f, name=name, cb=on_result: sp.wrap(name, f, cb),
                          f"{site}.{attr}")
        cli = mod("crossdiff.cli")
        for attr, name in CLI_COMMANDS:
            self._replace(getattr(cli, attr, None), "callback",
                          lambda f, name=name: sp.wrap(name, f),
                          f"crossdiff.cli.{attr}.callback")
        steppers = getattr(mod("crossdiff.solver"), "_STEPPERS", {})
        for scheme in ("explicit", "imex", "newton"):
            self._replace(steppers, scheme, self._count_attempts,
                          f"crossdiff.solver._STEPPERS[{scheme!r}]")

    def remove(self):
        while self._saved:
            obj, key, original = self._saved.pop()
            if isinstance(obj, dict):
                obj[key] = original
            else:
                setattr(obj, key, original)

    def _count_nnz(self, args, out):
        self.spans.counts["solver.spsolve.nnz"] += int(args[0].nnz)

    def _count_attempts(self, stepper):
        counts = self.spans.counts

        @functools.wraps(stepper)
        def counted(*args, **kwargs):
            counts["solver.attempted_steps"] += 1
            return stepper(*args, **kwargs)

        return counted


def count_identities(table, counts, records, scheme, reaction, per_pass,
                     passes, missing=()):
    """Identities between counts taken at different sites.

    Each pairs a wrapper count with a count from another source (the
    returned trajectories, or the workload's own structure), so a call
    path that bypasses a wrapper site shows up as a mismatch instead of
    as time that silently goes missing.  Returns (label, lhs, rhs) for
    every identity that fails.
    """
    calls = {name: row[0] for name, row in table.items()}
    checks = [(f"wrapper site {site} exists", 0, 1) for site in missing]
    checks += [
        ("diagnostics.norms.calls == records of traced runs",
         calls["diagnostics.norms"], records),
        ("solver.accepted_steps <= solver.attempted_steps",
         min(counts["solver.accepted_steps"], counts["solver.attempted_steps"]),
         counts["solver.accepted_steps"]),
    ]
    checks += [(f"{name}.self_s <= {name}.total_s", min(row[2], row[1]), row[2])
               for name, row in table.items()]
    if scheme == "newton":
        checks.append(("solver.spsolve.calls == solver.newton_solves",
                       calls["solver.spsolve"], counts["solver.newton_solves"]))
    if scheme == "imex":
        checks.append(("solver.spsolve.calls == solver.attempted_steps",
                       calls["solver.spsolve"], counts["solver.attempted_steps"]))
    if scheme == "explicit":
        checks.append(("grid.laplacian_of_P.calls == solver.attempted_steps",
                       calls["grid.laplacian_of_P"],
                       counts["solver.attempted_steps"]))
        checks.append(("solver.spsolve.calls == 0", calls["solver.spsolve"], 0))
    else:
        checks.append(("grid.stable_dt.calls == 0", calls["grid.stable_dt"], 0))
    if not reaction:
        checks.append(("model.eval_reaction.calls == 0",
                       calls["model.eval_reaction"], 0))
    checks += [(f"{name}.calls == {n} per pass", calls[name], n * passes)
               for name, n in per_pass.items()]
    return [c for c in checks if c[1] != c[2]]
