"""Seeded `estimate --json` records must not drift.

The files under tests/data/golden/ are the records of each method on
C(20,10) with the runtimes (``wall_time_seconds`` and the MIM event
``time``) removed.  A change that alters any other byte of seeded output
fails here and has to say why it regenerates them.
"""

import json
from pathlib import Path

import pytest

from mindist.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

CASES = {
    "exact": ["--method", "exact"],
    "exact-enumerator": ["--method", "exact", "--enumerator"],
    "ga-a": ["--method", "ga-a", "--seed", "3", "--population", "40", "--generations", "6"],
    "ga-b": ["--method", "ga-b", "--seed", "3", "--population", "40", "--generations", "6"],
    "mim": ["--method", "mim", "--seed", "1", "--nb-test", "5"],
}


def without_runtimes(text: str) -> str:
    doc = json.loads(text)
    del doc["wall_time_seconds"]
    for event in doc["events"]:
        event.pop("time", None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_record_matches_golden(name, c20_file, tmp_path):
    out = tmp_path / f"{name}.json"
    rc = main(["estimate", "--code", str(c20_file), *CASES[name], "--json", str(out)])
    assert rc == EXIT_OK
    got = without_runtimes(out.read_text(encoding="utf-8")).encode()
    assert got == (GOLDEN / f"{name}.json").read_bytes()
