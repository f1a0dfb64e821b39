import json
from dataclasses import fields

import pytest

from lamrun import equivalence as eq, harness, liam, ljam, multitypes as mt, reporting, siam
from lamrun import tokens as tk
from lamrun.reporting import FuelExhausted
from lamrun.syntax import App, Lam, Node, TermIndex, Var, is_closed, parse, term_size, whnf_steps

from conftest import plain_text, skeleton, traced, written


def test_family_tn_base():
    assert harness.family_tn(1) == harness.IDENTITY


def test_family_tn_three():
    t = harness.family_tn(3)
    expected = App(App(harness.IDENTITY, harness.IDENTITY), harness.IDENTITY)
    assert written(t) == written(expected)


def test_family_tn_size_linear():
    sizes = [term_size(harness.family_tn(n)) for n in range(1, 8)]
    deltas = {b - a for a, b in zip(sizes, sizes[1:])}
    assert deltas == {3}


def test_family_tn_rejects_zero():
    with pytest.raises(ValueError):
        harness.family_tn(0)


def test_family_rkh_smallest():
    t = harness.family_rkh(1, 1)
    expected = parse("(\\x1.\\y.y (\\z1.\\z.z)) (\\x.x) (\\w.w (\\x.x))")
    assert skeleton(t) == skeleton(expected)


def test_family_rkh_closed():
    for k in range(1, 5):
        for h in range(1, 5):
            assert is_closed(harness.family_rkh(k, h))


def test_family_rkh_peak_markers():
    t = harness.family_rkh(2, 4)
    iam_peak = liam.run(t, 10**5).peak.marker_count
    jam_peak = ljam.run(t, 10**5).peak.marker_count
    assert (iam_peak, jam_peak) == (6, 4)


def test_gen_corpus_empty():
    assert harness.gen_corpus(1, 0, 10) == []


def test_gen_corpus_deterministic():
    a = harness.gen_corpus(7, 40, 30)
    b = harness.gen_corpus(7, 40, 30)
    assert list(map(written, a)) == list(map(written, b))


def test_gen_corpus_retention(corpus):
    # retention measured once for seed 42, 200 candidates, size cap 40
    assert len(corpus) == 132
    assert len(corpus) >= 50
    assert all(is_closed(t) and term_size(t) <= 40 for t in corpus)


def test_compare_row(running_example):
    row = harness.compare(running_example, 1000, with_types=True)
    lengths = {name: entry["length"] for name, entry in row["machines"].items()}
    assert lengths["jam"] == lengths["pam"] == 15
    assert lengths["iam"] == 18 and lengths["kam"] == 9
    assert lengths["kam"] < lengths["jam"] < lengths["iam"]
    assert row["weights"] == {"w_kam": 9, "w_iam": 18, "stars": 19}


def test_compare_identity():
    row = harness.compare(parse("\\x.x"), 10)
    assert all(entry["length"] == 0 for entry in row["machines"].values())


def test_compare_records_fuel_exhaustion(omega):
    row = harness.compare(omega, 50)
    assert all(entry["outcome"] == "fuel" for entry in row["machines"].values())


def test_report_arithmetic(running_example, corpus):
    for term in [running_example] + corpus[:30]:
        for name in ("iam", "jam", "pam", "kam"):
            report = harness.run_machine(name, term, 10**6)
            assert report.length == sum(report.per_label.values())
            vars_ = sum(v for k, v in report.per_label.items() if k.startswith("var"))
            assert report.ram_cost_bound == (report.length - vars_) + vars_ * term_size(term)


@pytest.mark.parametrize("name", list(harness.MACHINES))
@pytest.mark.parametrize("text", ["(\\x.x) (\\y.y)", "(\\x.x x) (\\y.y)",
                                  "(\\y.\\x.x y) (\\z.z) (\\z.z)"])
def test_run_and_trajectory_agree_at_the_fuel_boundary(name, text):
    machine, term = harness.MACHINES[name], parse(text)
    index = (siam.DerivationIndex(mt.infer_star_derivation(term), term) if name == "siam"
             else TermIndex(term))

    def seen(state):
        return (state.focus, machine.dir(state),
                plain_text(lambda enc: machine.snapshot(index, state, enc)))

    length = sum(1 for _ in reporting.trajectory(machine, index)) - 1
    for k in range(length + 2):
        report = reporting.run(machine, index, k)
        assert report.length == min(k, length)
        assert (report.outcome == "fuel") == (k < length)
        walk = []
        try:
            for record in reporting.trajectory(machine, index, k):
                walk.append(record)
        except FuelExhausted:
            assert k < length
        else:
            assert k >= length
        assert len(walk) == min(k, length) + 1
        assert seen(report.final_state) == seen(walk[-1][1])


def test_states_and_items_are_slotted_and_unchanged():
    # slots, not frozen dataclasses: no state or item has a ``__dict__``, and a
    # run assigns no field of a state it has yielded, nor of an item its token reaches
    for cls in tk.TEXT_FORMS:
        assert cls.__dictoffset__ == 0, cls  # its instances have no __dict__
    term = parse("two two I I", {"two": "\\f.\\x.f (f x)", "I": "\\z.z"})

    def values(obj):
        return [getattr(obj, f.name) for f in fields(obj)]

    for name, machine in harness.MACHINES.items():
        index = (siam.DerivationIndex(mt.infer_star_derivation(term), term) if name == "siam"
                 else TermIndex(term))
        assert not hasattr(machine.initial(index), "__dict__"), name
        yielded = []
        for _, s, _ in reporting.trajectory(machine, index):
            lists = [v for v in values(s) if isinstance(v, tk.Cell)]
            yielded += [(x, values(x)) for x in [s, *tk.new_items(set(), *lists)]]
        assert len(yielded) > 1
        assert any(type(x) in tk.NESTED_LISTS for x, _ in yielded) == (name not in ("siam", "pam"))
        for x, before in yielded:
            assert all(a is b for a, b in zip(values(x), before)), (name, x)


def test_terms_are_slotted_and_unchanged():
    # terms are slotted too; no run of a machine and no weak head reduction
    # step assigns a field of a term
    for cls in (Var, Lam, App):
        assert cls.__dictoffset__ == 0, cls  # its instances have no __dict__
    text, defs = "two two I I", {"two": "\\f.\\x.f (f x)", "I": "\\z.z"}
    term = parse(text, defs)

    def subterms(root):
        """Each subterm of ``root`` with the values of its fields."""
        found, todo = [], [root]
        while todo:
            t = todo.pop()
            values = [getattr(t, f.name) for f in fields(t)]
            found.append((t, values))
            todo += [v for v in values if isinstance(v, (Var, Lam, App))]
        return found

    held = subterms(term)
    for name, machine in harness.MACHINES.items():
        index = (siam.DerivationIndex(mt.infer_star_derivation(term), term) if name == "siam"
                 else TermIndex(term))
        assert reporting.run(machine, index).length > 1, name
    for step in whnf_steps(term):
        held += subterms(step.head) + subterms(step.arg)
    assert len(held) > term_size(term)
    for t, before in held:
        assert all(getattr(t, f.name) is b for f, b in zip(fields(t), before)), t


def test_trace_jsonl_roundtrip(running_example):
    _, events = traced(liam.run, running_example, 100)
    lines = [ev.to_line() for ev in events]
    parsed = [json.loads(line) for line in lines]
    assert [json.dumps(p, ensure_ascii=False) for p in parsed] == lines
    assert [p["step"] for p in parsed] == list(range(len(parsed)))


def test_exponential_family_runs():
    t = harness.family_tn(5)
    row = harness.compare(t, 10**5)
    assert row["machines"]["iam"]["length"] == 60
    assert row["machines"]["kam"]["length"] == 12


def test_compare_infers_the_derivation_once(monkeypatch, running_example, omega):
    calls = []
    infer = mt.infer_star_derivation

    def counted(*args, **kwargs):
        calls.append(args)
        return infer(*args, **kwargs)

    monkeypatch.setattr(mt, "infer_star_derivation", counted)
    row = harness.compare(running_example, 1000, machines=["iam", "siam"], with_types=True)
    assert len(calls) == 1
    assert row["machines"]["siam"]["length"] == 18 and row["weights"]["w_iam"] == 18
    calls.clear()
    row = harness.compare(omega, 50, machines=["kam", "siam"], with_types=True)
    assert len(calls) == 1
    assert row["machines"]["siam"] == {"outcome": "fuel"} and row["weights"] is None


def test_untraced_runs_make_no_paths(monkeypatch):
    # a position is a node: an untraced run follows links and never builds
    # the root-relative path that only traces and reports print; nor does a
    # derivation, whose judgements are about nodes, nor a checker relating them
    made = 0
    path = Node.path

    def counted(node):
        nonlocal made
        made += 1
        return path.fget(node)

    monkeypatch.setattr(Node, "path", property(counted))
    chain = Lam("z", Var(0, "z"))
    for _ in range(200):
        chain = App(harness.IDENTITY, chain)
    for term in (harness.family_tn(8), harness.family_rkh(3, 3), chain):
        for name in ("iam", "jam", "pam", "kam", "ham-j", "ham-k"):
            assert harness.run_machine(name, term).outcome == "final"
        report, coverage = siam.run(mt.infer_star_derivation(term), term)
        assert report.outcome == "final" and coverage.hamiltonian
        for check in (eq.check_iam_siam, eq.check_weights, eq.check_invariants_suite):
            assert check(term).passed
    assert made == 0
