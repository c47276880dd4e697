"""The suite's warning filters report a failing hypothesis property
instead of crashing the session: hypothesis's explain phase imports
libcst, which warns from mypy_extensions on import, and the blanket
error::DeprecationWarning would turn that warning into INTERNALERROR.
Every other DeprecationWarning still raises."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
import warnings

import pytest
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_small(x):
    assert x < 10


def test_other_deprecations_still_raise():
    with pytest.raises(DeprecationWarning):
        warnings.warn("old", DeprecationWarning)
'''


def test_failing_property_is_reported(tmp_path):
    path = tmp_path / "test_failing_property.py"
    path.write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), str(path)],
        cwd=tmp_path, text=True, capture_output=True, timeout=120)
    text = out.stdout + out.stderr
    assert out.returncode == 1, text
    assert "Falsifying example" in text
    assert "INTERNALERROR" not in text
    assert "1 failed, 1 passed" in text
