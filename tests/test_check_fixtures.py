"""Byte-for-byte verdicts of every checker on the seed-42 corpus.

Each fixture is the full output of ``lamrun check <checker> --corpus 42,200,40``:
one JSON report per corpus term (one report in all for ``quadratic``).  A
refactor of the machines or the checkers must leave them unchanged.

To regenerate them after a deliberate change of a verdict or its details, run
``PYTHONPATH=src python tests/test_check_fixtures.py``.
"""
import contextlib
import io
from pathlib import Path

import pytest

from lamrun.cli import main
from lamrun.equivalence import CHECKERS

FIXTURES = Path(__file__).parent / "fixtures" / "checks"


def check_text(checker: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["check", checker, "--corpus", "42,200,40"])
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_corpus_verdicts_match_fixture(checker):
    expected = (FIXTURES / f"{checker}.jsonl").read_text(encoding="utf-8")
    assert check_text(checker) == expected


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for checker in CHECKERS:
        (FIXTURES / f"{checker}.jsonl").write_text(check_text(checker), encoding="utf-8")
