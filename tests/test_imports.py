"""The import graph stays lean: scipy submodules that crossdiff uses at
one call site each load on first use, not on `import crossdiff.cli`."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.signal", "scipy.stats", "scipy.integrate",
            "scipy.optimize", "scipy.ndimage", "scipy.fft")

PRELUDE = f"""
import json, sys
import crossdiff.cli
from crossdiff import SolverConfig, attractor, build_grid, classic_skt, \\
    model_from_dict, solver
DEFERRED = {DEFERRED!r}
"""


def loaded_after(body):
    """The deferred submodules in sys.modules after a fresh interpreter
    imports crossdiff.cli from this checkout and runs body."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = PRELUDE + body + (
        "\nprint(json.dumps([m for m in DEFERRED if m in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                         capture_output=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_heat_newton_run_loads_no_deferred_module():
    assert loaded_after("""
spec = model_from_dict({"m": 1, "P": [[[1.0, 1]]], "lambda": {"lambda0": 1.0}})
grid = build_grid(1.0, 1.0, 8, 8, "dirichlet")
field0 = attractor.initial_field("eigenmode", grid, 1, 1.0, 0)
cfg = SolverConfig(scheme="newton", dt0=1e-3, dt_min=1e-3, dt_max=1e-3,
                   t_end=3e-3)
traj = solver.run(spec, field0, cfg)
assert traj.reached_end and len(traj.newton_history) == 3
""") == []


def test_threads_importing_on_first_use_agree_with_serial():
    # four threads reach the window sums' first imports together, as
    # sweep --threads workers do in a fresh process
    assert loaded_after("""
import threading
import numpy as np
from crossdiff import Field, norms
spec = classic_skt(1.0, 1.0, 1.0, 0.5, 0.5, 1.0)
g = build_grid(1.0, 1.0, 32, 32)
f = Field(g, np.random.default_rng(5).uniform(0.2, 2.0, (2, 32, 32)))
radii = (0.0625, 0.25)
start = threading.Barrier(4)
results = [None] * 4

def work(k):
    start.wait()
    rec = norms(f, spec, R_list=radii)
    results[k] = (rec.bmo, rec.morrey)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
rec = norms(f, spec, R_list=radii)
assert all(r == (rec.bmo, rec.morrey) for r in results), results
""") == ["scipy.optimize", "scipy.ndimage", "scipy.fft"]


def test_classic_skt_loads_only_optimize():
    # scipy.optimize itself imports scipy.fft (through
    # scipy.linalg.interpolative); classic_skt loads nothing beyond it
    got = loaded_after("classic_skt(1.0, 1.0, 1.0, 0.5, 0.5, 1.0)\n")
    assert "scipy.optimize" in got
    assert got == loaded_after("import scipy.optimize\n")
    assert not {"scipy.signal", "scipy.stats", "scipy.integrate",
                "scipy.ndimage"} & set(got)
