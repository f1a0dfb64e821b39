"""Every Python file of the project parses as Python 3.10, the oldest version
``pyproject.toml`` accepts and the first leg of CI's matrix.

This catches syntax only: ``ast.parse`` with ``feature_version=(3, 10)``
rejects grammar newer than 3.10 (an ``except*`` clause, say), but not a
library API newer than 3.10, such as a function that 3.11 added to the
standard library.  Only a 3.10 interpreter catches those.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src", "tests", "perfbench", "scripts")
               for path in (ROOT / folder).rglob("*.py"))


def test_the_files_are_found():
    assert {path.relative_to(ROOT).parts[0] for path in FILES} == {
        "src", "tests", "perfbench", "scripts"}


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_a_file_parses_as_python_310(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
