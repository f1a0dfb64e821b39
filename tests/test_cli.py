import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lamrun
from lamrun import harness, liam, reporting
from lamrun.cli import main
from lamrun.reporting import FuelExhausted, Stuck
from lamrun.syntax import TermIndex, parse

from conftest import identity_chain

DEFS = "I = \\z.z;\n"


@pytest.fixture
def defs_file(tmp_path):
    path = tmp_path / "defs.lam"
    path.write_text(DEFS, encoding="utf-8")
    return str(path)


def test_parse_command(capsys, defs_file):
    assert main(["parse", "(\\y.\\x.x y) I I", "--defs", defs_file]) == 0
    out = capsys.readouterr().out
    assert "size: 11" in out and "closed: True" in out


def test_parse_unbound_is_input_error(capsys):
    assert main(["parse", "x"]) == 3


def test_run_with_jsonl_trace(capsys, defs_file):
    code = main(["run", "(\\y.\\x.x y) I I", "--machine", "iam",
                 "--trace", "jsonl", "--defs", defs_file, "--fuel", "100"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    events = [json.loads(line) for line in lines[:-1]]
    assert len(events) == 19  # initial row plus 18 transitions
    report = json.loads(lines[-1])
    assert report["length"] == 18


def test_run_table_trace(capsys, defs_file):
    assert main(["run", "I I", "--machine", "kam", "--trace", "table",
                 "--defs", defs_file, "--fuel", "50"]) == 0
    out = capsys.readouterr().out
    assert "label" in out and "abs" in out


def test_run_fuel_exit_code(capsys):
    assert main(["run", "(\\x.x x) (\\x.x x)", "--machine", "kam", "--fuel", "20"]) == 2


def test_a_traced_run_out_of_fuel_keeps_the_states_it_reached(capsys):
    """The trace streams: a run that runs out of fuel has written the event of
    every state it reached, and no report line."""
    two_two = "(\\f.\\x.f (f x)) (\\f.\\x.f (f x)) (\\z.z) (\\z.z)"
    assert main(["run", two_two, "--machine", "iam", "--trace", "jsonl", "--fuel", "100"]) == 2
    captured = capsys.readouterr()
    assert [json.loads(line)["step"] for line in captured.out.splitlines()] == list(range(101))
    assert captured.err == "fuel exhausted after 100 steps\n"


def test_a_stuck_traced_run_keeps_the_states_it_reached(monkeypatch, capsys, defs_file):
    step, calls = liam.step, iter(range(10))
    monkeypatch.setattr(liam, "step", lambda index, s: (
        step(index, s) if next(calls) < 3 else Stuck("corrupted")))
    assert main(["run", "(\\y.\\x.x y) I I", "--machine", "iam", "--trace", "jsonl",
                 "--defs", defs_file]) == 1
    captured = capsys.readouterr()
    assert [json.loads(line)["step"] for line in captured.out.splitlines()] == [0, 1, 2, 3]
    assert captured.err == "iam stuck: corrupted\n"


def test_run_siam(capsys, defs_file):
    assert main(["run", "(\\y.\\x.x y) I I", "--machine", "siam",
                 "--defs", defs_file, "--fuel", "100"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["length"] == 18


def test_compare_json(capsys, defs_file):
    assert main(["compare", "(\\y.\\x.x y) I I", "--defs", defs_file,
                 "--format", "json", "--fuel", "1000"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["machines"]["kam"]["length"] == 9


def test_compare_csv_is_comma_separated(capsys, defs_file):
    assert main(["compare", "(\\y.\\x.x y) I I", "--defs", defs_file,
                 "--format", "csv", "--types", "--fuel", "1000"]) == 0
    header, *rows, weights = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["machine", "outcome", "length", "vars", "ramBound", "peakLp", "peakMarkers"]
    assert [row[0] for row in rows] == ["iam", "jam", "pam", "kam"]
    assert all(len(row) == 7 for row in rows)
    assert rows[-1][:3] == ["kam", "final", "9"]
    assert weights == ["weights", "w_kam=9", "w_iam=18"]


def test_compare_prints_missing_fields_as_empty_cells(capsys):
    # omega has no ★ derivation, so SIAM's entry holds its outcome only
    argv = ["compare", "(\\x.x x)(\\x.x x)", "--machines", "kam,siam", "--fuel", "50"]
    assert main(argv + ["--format", "csv"]) == 0
    header, kam, siam = csv.reader(io.StringIO(capsys.readouterr().out))
    assert kam[:2] == ["kam", "fuel"] and all(kam)
    assert siam == ["siam", "fuel", "", "", "", "", ""]
    assert main(argv + ["--format", "table"]) == 0
    assert "None" not in capsys.readouterr().out


def test_types_weights(capsys, defs_file):
    assert main(["types", "(\\y.\\x.x y) I I", "--weights", "--defs", defs_file]) == 0
    out = capsys.readouterr().out
    assert "w_kam: 9" in out and "w_iam: 18" in out


def test_types_divergent_exit(capsys):
    assert main(["types", "(\\x.x x) (\\x.x x)", "--fuel", "100"]) == 2


def test_check_single_term(capsys, defs_file):
    assert main(["check", "iam-jam", "(\\y.\\x.x y) I I",
                 "--defs", defs_file, "--fuel", "1000"]) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["passed"] is True


def test_check_iam_siam(capsys, defs_file):
    assert main(["check", "iam-siam", "(\\y.\\x.x y) I I",
                 "--defs", defs_file, "--fuel", "1000"]) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["passed"] is True and doc["details"]["length"] == 18


def test_check_corpus(capsys):
    assert main(["check", "quadratic", "--corpus", "5,20,25", "--fuel", "100000"]) == 0


def test_check_quadratic_out_of_fuel_is_inconclusive(capsys):
    assert main(["check", "quadratic", "(\\x.x x) (\\x.x x)", "--fuel", "100"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] and doc["inconclusive"]
    assert doc["details"] == {"checked": 0, "reason": "fuel 100 exhausted on 1 of 1 terms"}


def test_check_corpus_goes_on_past_a_stuck_machine(monkeypatch, capsys, corpus):
    # the corpus generator runs the interaction machine too: keep it out of the patch
    monkeypatch.setattr(harness, "gen_corpus", lambda seed, count, max_size: corpus)
    monkeypatch.setattr(liam, "step", lambda index, s: Stuck("corrupted"))
    assert main(["check", "iam-jam", "--corpus", "42,200,40"]) == 1
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(docs) == 132
    assert all(not d["passed"] and d["details"]["stuck"] == "iam stuck: corrupted"
               for d in docs)


def test_check_requires_input(capsys):
    assert main(["check", "weights"]) == 3


def test_bench_family(capsys):
    assert main(["bench", "--family", "tn", "--range", "1..4",
                 "--format", "csv", "--fuel", "10000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("family,machine,length")
    assert "t_4,iam,28" in out


def test_bench_csv_counts_every_variable_label(monkeypatch, capsys):
    # HAM labels its variable transitions var_j and var_k, not var
    compare = harness.compare
    monkeypatch.setattr(harness, "compare",
                        lambda term, fuel: compare(term, fuel, ["iam", "ham-j", "ham-k"]))
    assert main(["bench", "--family", "tn", "--range", "3..3", "--format", "csv"]) == 0
    rows = {line.split(",")[1]: line.split(",") for line in
            capsys.readouterr().out.splitlines()[1:]}
    ham = harness.run_machine("ham-j", harness.family_tn(3))
    assert int(rows["ham-j"][3]) == ham.per_label.get("var_j", 0) + ham.per_label.get("var_k", 0) > 0
    assert int(rows["ham-k"][3]) > 0
    assert int(rows["iam"][3]) == harness.run_machine("iam", harness.family_tn(3)).per_label["var"]


def test_env_fuel(monkeypatch, capsys):
    monkeypatch.setenv("LAMRUN_FUEL", "25")
    assert main(["run", "(\\x.x x) (\\x.x x)", "--machine", "kam"]) == 2


def test_term_from_file(tmp_path, capsys):
    path = tmp_path / "term.lam"
    path.write_text("(\\x.x x) (\\y.y)", encoding="utf-8")
    assert main(["parse", f"@{path}"]) == 0
    assert "size: 7" in capsys.readouterr().out


def test_term_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("(\\x.x x) (\\y.y)\n"))
    assert main(["parse", "-"]) == 0
    assert capsys.readouterr().out.startswith("(λx.x x) (λy.y)\nsize: 7\n")


def test_compare_machine_selection(capsys, defs_file):
    assert main(["compare", "I I", "--machines", "kam,ham-k", "--defs", defs_file,
                 "--format", "json", "--fuel", "100"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert set(row["machines"]) == {"kam", "ham-k"}


def test_check_inconclusive_is_fuel_exit(capsys):
    assert main(["check", "iam-jam", "(\\x.x x) (\\x.x x)", "--fuel", "100"]) == 2


def test_run_writes_out_file(tmp_path, capsys, defs_file):
    out = tmp_path / "trace.jsonl"
    assert main(["run", "I I", "--machine", "iam", "--trace", "jsonl",
                 "--defs", defs_file, "--fuel", "100", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 6  # init + 4 transitions + report


def test_a_run_that_fails_leaves_no_partial_out_file(monkeypatch, tmp_path, capsys):
    """A trace too large for memory fails with exit 3, and its file goes: a
    sink that raises ``MemoryError`` at the fourth event stands in for it."""
    run_machine = harness.run_machine
    written = []

    def run_out_of_memory(name, term, fuel, sink=None):
        def failing(ev):
            if len(written) == 3:
                raise MemoryError()
            written.append(ev.step)
            sink(ev)

        return run_machine(name, term, fuel, sink=failing)

    monkeypatch.setattr(harness, "run_machine", run_out_of_memory)
    out = tmp_path / "trace.jsonl"
    for trace in ("jsonl", "jsonl-unfolded", "table"):
        written.clear()
        assert main(["run", "(\\y.\\x.x y) (\\z.z) (\\z.z)", "--machine", "jam",
                     "--trace", trace, "--out", str(out)]) == 3
        assert written == [0, 1, 2] and not out.exists()
        assert capsys.readouterr().err == "input too large for this command: MemoryError()\n"


def test_parse_deep_identity_chain(capsys):
    depth = 10_000
    text = identity_chain(depth)
    assert main(["parse", text]) == 0
    out = capsys.readouterr().out
    assert f"size: {3 * depth + 2}" in out and "closed: True" in out


def test_types_weights_on_a_deep_identity_chain(capsys):
    assert main(["types", identity_chain(1000), "--weights"]) == 0
    out = capsys.readouterr().out
    assert "w_kam: 3000\n" in out and "w_iam: 4000\n" in out and "stars: 4001\n" in out


@pytest.mark.parametrize("argv", [
    ["compare", "\\x.x", "--machines", "iam,bogus"],
    ["run", "\\x.x", "--machine", "bogus"],
    ["run", "\\x.x", "--machine", "kam", "--fuel", "ten"],
    ["check", "iam-jam", "(\\x.x x) (\\x.x x)", "--fuel", "-1"],
    ["types", "\\x.x", "--fuel", "-1"],
    ["frobnicate"],
    ["check", "weights", "\\x.x", "--corpus", "1,5,10"],
], ids=["unknown-in-machines", "unknown-machine", "non-integer-fuel", "check-negative-fuel",
        "types-negative-fuel", "unknown-command", "check-term-and-corpus"])
def test_usage_error_is_input_error(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("lamrun")


@pytest.mark.parametrize("argv,usage", [
    (["check", "weights", "--corpus", "1,0,10"], "seed,count,maxSize"),
    (["check", "weights", "--corpus", "1,5,-3"], "seed,count,maxSize"),
    (["check", "weights", "--corpus", "1,2"], "seed,count,maxSize"),
    (["bench", "--family", "tn", "--range", "3..1"], "a..b"),
    (["bench", "--family", "tn", "--range", "abc"], "a..b"),
    (["bench", "--family", "tn", "--range", "2.."], "a..b"),
    (["bench", "--family", "tn", "--range=0..3"], "a..b"),  # both families start at 1
    (["bench", "--family", "rkh", "--range=-1..1"], "a..b"),
], ids=["corpus-count-0", "corpus-negative-size", "corpus-two-values", "range-descending",
        "range-not-a-range", "range-no-end", "range-from-0", "range-negative"])
def test_a_malformed_corpus_or_range_is_a_usage_error(capsys, argv, usage):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("lamrun") and usage in captured.err


def test_check_on_a_corpus_without_terms_is_input_error(capsys):
    # no closed term has size 1, so the generator keeps none of the five
    assert harness.gen_corpus(1, 5, 1) == []
    assert main(["check", "weights", "--corpus", "1,5,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_help_exits_zero(capsys):
    assert main(["run", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: lamrun run")


def test_negative_env_fuel_is_input_error(monkeypatch, capsys):
    monkeypatch.setenv("LAMRUN_FUEL", "-1")
    assert main(["check", "iam-jam", "(\\x.x x) (\\x.x x)"]) == 3


def test_negative_fuel_ends_a_trajectory():
    walk = reporting.trajectory(liam.MACHINE, TermIndex(parse("(\\x.x x) (\\x.x x)")), -1)
    assert next(walk)[0] is None
    with pytest.raises(FuelExhausted):
        next(walk)


def test_too_deep_for_the_stack_is_input_error():
    # the derivation JSON nests one level per judgement: 1 200 identities
    # exceed a recursion limit of 1 000 in ``json.dumps``
    script = f"""
import sys
from lamrun.cli import main
sys.setrecursionlimit(1000)
sys.exit(main(["types", "--json", {identity_chain(1200)!r}]))
"""
    src = str(Path(lamrun.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("input too large") and "Traceback" not in done.stderr
