"""Byte-for-byte JSONL traces of every machine on three small terms.

Each fixture is the full output of ``lamrun run --trace jsonl``: one event per
line, then the report line.  They pin the token serialisation of every
machine and the footprint figures (``deepCells``, ``peakFootprint``,
``ramCostBound``) that no hand-derived golden trace covers.

To regenerate them after a deliberate format change, run
``PYTHONPATH=src python tests/test_trace_fixtures.py``.
"""
import contextlib
import io
from pathlib import Path

import pytest

from lamrun.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "traces"

TERMS = {
    "running": "(\\y.\\x.x y) (\\z.z) (\\z.z)",
    "duplication": "(\\x.x x) (\\y.y)",
    "t4": "(\\x.x) (\\x.x) (\\x.x) (\\x.x)",
}
MACHINES = ("iam", "jam", "pam", "kam", "ham-j", "ham-k", "siam")
CASES = [(t, m) for t in TERMS for m in MACHINES]


def trace_text(term: str, machine: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["run", TERMS[term], "--machine", machine, "--trace", "jsonl"])
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("term,machine", CASES)
def test_jsonl_trace_matches_fixture(term, machine):
    expected = (FIXTURES / f"{term}-{machine}.jsonl").read_text(encoding="utf-8")
    assert trace_text(term, machine) == expected


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for term, machine in CASES:
        (FIXTURES / f"{term}-{machine}.jsonl").write_text(
            trace_text(term, machine), encoding="utf-8")
