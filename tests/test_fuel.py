"""Running out of fuel, at every layer: a run returns its report, a command
exits 2, and a checker is inconclusive, never failed.

Only ``reporting.trajectory`` raises ``FuelExhausted``: every run function
records it as ``outcome == "fuel"``.  ``t_10``, ten identities applied left to
right, reduces in 9 steps, so each fuel below covers its reduction and the
SIAM has its ★ derivation to walk.
"""
import json

import pytest

from lamrun import equivalence as eq, harness
from lamrun.cli import main
from lamrun.syntax import pretty

T10 = harness.family_tn(10)
T10_TEXT = pretty(T10)
SHORT = ("kam", "ham-k")  # 27 transitions on t_10: these runs end within fuel 100


@pytest.mark.parametrize("name", harness.MACHINES)
def test_a_run_out_of_fuel_returns_its_report(name):
    report = harness.run_machine(name, T10, 20)
    assert (report.outcome, report.length) == ("fuel", 20)


@pytest.mark.parametrize("name", harness.MACHINES)
def test_a_traced_command_writes_a_report_only_when_its_run_ends(capsys, name):
    code = main(["run", T10_TEXT, "--machine", name, "--fuel", "100", "--trace", "jsonl"])
    out, err = capsys.readouterr()
    lines = [json.loads(line) for line in out.splitlines()]
    if name in SHORT:
        assert (code, err, len(lines)) == (0, "", 29)  # 28 events, then the report
        assert lines[-1]["outcome"] == "final" and lines[-1]["length"] == 27
    else:
        assert (code, err) == (2, "fuel exhausted after 100 steps\n")
        assert [line["step"] for line in lines] == list(range(101))


@pytest.mark.parametrize("name", eq.CHECKERS)
def test_a_checker_out_of_fuel_is_inconclusive(capsys, name):
    report = eq.CHECKERS[name]([T10] if name == "quadratic" else T10, 100)
    assert report.passed and report.inconclusive
    assert main(["check", name, T10_TEXT, "--fuel", "100"]) == 2
