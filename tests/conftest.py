import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import crossdiff
from crossdiff import (Field, GeneralReaction, LambdaSpec, MatrixPolynomial,
                       ModelSpec, PolynomialMap, ReactionSpec, SolverConfig,
                       build_grid, classic_skt)

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

# the crossdiff package this session imports, and the directory holding
# it: the checkout's src/ or the site-packages of an installed copy
PACKAGE_FILE = Path(crossdiff.__file__).resolve()
PACKAGE_DIR = PACKAGE_FILE.parents[1]


def pytest_report_header():
    return f"crossdiff: {PACKAGE_FILE}"


def pytest_terminal_summary(terminalreporter):
    # -q drops the header, so a quiet log names the package here
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(f"crossdiff: {PACKAGE_FILE}")


def run_python(code, *args, timeout=120, **kwargs):
    """Run code in a fresh interpreter that imports the crossdiff this
    session imports, with PACKAGE_DIR first on PYTHONPATH; returns the
    CompletedProcess, its output as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          text=True, capture_output=True, timeout=timeout,
                          **kwargs)


@pytest.fixture(scope="session")
def heat1():
    """Scalar heat system: P = identity, lambda = 1, no reaction."""
    return ModelSpec(P=PolynomialMap.identity(1), lam=LambdaSpec(1.0),
                     name="heat1")


@pytest.fixture(scope="session")
def heat2():
    return ModelSpec(P=PolynomialMap.identity(2), lam=LambdaSpec(1.0),
                     name="heat2")


@pytest.fixture(scope="session")
def skt():
    """Diffusion-only quadratic cross-diffusion model."""
    return classic_skt(1.0, 1.0, 1.0, 0.5, 0.5, 1.0)


@pytest.fixture(scope="session")
def skt_lv():
    """Same diffusion with a competitive two-species reaction."""
    return classic_skt(1.0, 1.0, 1.0, 0.5, 0.5, 1.0,
                       lv=(1.0, 1.0, 1.0, 0.5, 0.5, 1.0))


@pytest.fixture(scope="session")
def logistic():
    """Scalar u_t = Laplace(u) + u - |u| u; constant data follows the
    logistic ODE exactly."""
    return ModelSpec(
        P=PolynomialMap.identity(1),
        lam=LambdaSpec(1.0, 0.0, 1.0),
        reaction=ReactionSpec(K=[[1.0]],
                              B=MatrixPolynomial(1, (1, 2), []),
                              G=MatrixPolynomial.radial_identity(1),
                              kappa=1.0, c0=1.0),
        name="logistic")


@pytest.fixture(scope="session")
def decay_model():
    """Scalar heat with linear damping f = -u."""
    return ModelSpec(
        P=PolynomialMap.identity(1), lam=LambdaSpec(1.0),
        reaction=GeneralReaction(1, f0=PolynomialMap(1, [[(-1.0, (1,))]])),
        C_f=1.05, name="decay")


@pytest.fixture
def grid16n():
    return build_grid(1.0, 1.0, 16, 16, "neumann")


@pytest.fixture
def grid16d():
    return build_grid(1.0, 1.0, 16, 16, "dirichlet")


@pytest.fixture
def grid32d():
    return build_grid(1.0, 1.0, 32, 32, "dirichlet")


def eigenmode_field(grid, m=1, amp=1.0):
    """amp * sin(pi x / Lx) sin(pi y / Ly), the first Dirichlet mode."""
    return Field.from_function(
        grid, m, lambda c, X, Y: amp * np.sin(np.pi * X / grid.Lx)
        * np.sin(np.pi * Y / grid.Ly))


# an array of floats as an object array of their exact Fractions
exact = np.vectorize(Fraction, otypes=[object])


def assert_within_gamma(got, value, scale, n):
    """|got - value| <= gamma_n * scale in rational arithmetic, with
    gamma_n = n u / (1 - n u) and u = eps / 2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Sec. 3.1).  A float sum
    whose every term carries at most n roundings (an ulp-accurate
    operation counted as two) meets it with value the exact sum and
    scale the sum of the terms' magnitudes."""
    n_u = n * Fraction(np.finfo(float).eps) / 2
    assert abs(Fraction(float(got)) - value) <= n_u / (1 - n_u) * scale


def smooth_field(grid, m=1, amp=1.0, shift=2.0):
    """Positive smooth test field built from low cosine modes."""
    def f(c, X, Y):
        return amp * (shift + np.cos(np.pi * X / grid.Lx)
                      * np.cos(2.0 * np.pi * Y / grid.Ly)
                      + 0.5 * (c + 1) * np.cos(np.pi * Y / grid.Ly))
    return Field.from_function(grid, m, f)


@pytest.fixture
def make_eigenmode():
    return eigenmode_field


@pytest.fixture
def make_smooth():
    return smooth_field


@pytest.fixture
def tiny_config():
    return SolverConfig(scheme="imex", dt0=1e-3, t_end=0.01, record_every=1)


@pytest.fixture
def write_manifest(tmp_path):
    """Write a manifest dict (schema tag added if missing) to a file."""
    def _write(data, name="manifest.json"):
        data = dict(data)
        data.setdefault("schema", "crossdiff/1")
        path = tmp_path / name
        path.write_text(json.dumps(data, indent=1))
        return path
    return _write
