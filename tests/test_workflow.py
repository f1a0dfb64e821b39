"""CI runs the test suite and nothing else.  Every guard is a test that
``pytest`` collects, tier-1 or ``-m scale``, never a program in the workflow
file, where no test reads it and no one can run it without copying it out.
"""
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


@pytest.mark.parametrize("program", ["<<", "python -c", "ulimit", "-W"])
def test_the_workflow_holds_no_program(program):
    assert program not in WORKFLOW.read_text(encoding="utf-8")


def test_the_workflow_runs_the_scale_tier():
    assert "python -m pytest -m scale -s" in WORKFLOW.read_text(encoding="utf-8")
