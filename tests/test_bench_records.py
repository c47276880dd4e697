"""Every committed benchmark record keeps the common format: the command,
the parent commit, the protocol, the case, the machine, the library
versions and the claim with its runs."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"benchmark", "parent", "protocol", "case", "machine", "env", "claim"}


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_parses_and_carries_the_keys(path):
    data = json.loads(path.read_text())
    assert isinstance(data, dict)
    assert not KEYS - set(data), f"missing {sorted(KEYS - set(data))}"
    assert isinstance(data["claim"], dict) and data["claim"]
