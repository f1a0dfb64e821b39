"""The trace encoder against an independent oracle.

``tokens.Encoder`` defines each token item that holds lists once per run and
refers to it by id after that; for a sink marked by ``reporting.unfold`` it
writes every item out in full instead.  The oracle below is the plain
recursive serialisation that unfolds every item again at every state, one
dict per item, dumped with ``json.dumps``.  Every unfolded JSONL line of a traced run must equal the dump
of the oracle's event, byte for byte.
"""
import json
import subprocess
import sys

import pytest

from lamrun import harness, ham, liam, ljam, multitypes as mt, reporting, siam, tokens as tk
from lamrun.cli import main
from lamrun.syntax import TermIndex, parse, path_str, pretty

from conftest import (CHILD_ENV, ROOTS, SharedReader, church_ii, plain_text, resolve, traced,
                      unfolded)

DEFS = {"I": "\\z.z", "two": "\\f.\\x.f (f x)"}
FUEL = 10**6


# ---------------------------------------------------------------------------
# The oracle: one dict per item, rebuilt at every state


def lp_json(lp):
    """An IAM logged position is local, rooted at its variable's binder; a JAM one global."""
    local = isinstance(lp, liam.LoggedPosition)
    return {"var": path_str(lp.var.path), "scope": path_str(lp.var.binder.path) if local else "",
            "flavor": "local" if local else "global",
            "log": [lp_json(x) for x in tk.iterate(lp.log)]}


def tape_json(tape):
    return ["p" if isinstance(x, tk.Marker) else lp_json(x) for x in tk.iterate(tape)]


def closure_json(c):
    return {"pos": path_str(c.node.path), "env": [closure_json(e) for e in tk.iterate(c.env)]}


def lc_json(lc):
    return {"kind": "lc", "pos": path_str(lc.node.path),
            "env": [lc_json(e) for e in tk.iterate(lc.env)],
            "log": [cp_json(p) for p in tk.iterate(lc.log)]}


def cp_json(cp):
    return {"kind": "cp", "pos": path_str(cp.node.path),
            "log": [cp_json(p) for p in tk.iterate(cp.log)],
            "env": [lc_json(e) for e in tk.iterate(cp.env)]}


def ham_item_json(x):
    return lc_json(x) if isinstance(x, ham.LoggedClosure) else cp_json(x)


def ham_token(mode):
    return lambda index, s: {"mode": mode,
                             "log": [cp_json(p) for p in tk.iterate(s.log)],
                             "env": [lc_json(e) for e in tk.iterate(s.env)],
                             "tape": [ham_item_json(x) for x in tk.iterate(s.tape)]}


TOKEN = {
    "iam": lambda index, s: {"tape": tape_json(s.tape), "log": tape_json(s.log),
                             "bt": liam.is_backtracking(s)},
    "jam": lambda index, s: {"tape": tape_json(s.tape), "log": tape_json(s.log)},
    "pam": lambda index, s: {
        "history": [{"pos": path_str(p.path), "idx": i} for p, i in s.history.entries()],
        "index": s.index,
        "tape": ["p" if isinstance(x, tk.Marker) else {"pos": path_str(x.path)}
                 for x in tk.iterate(s.tape)]},
    "kam": lambda index, s: {"env": [closure_json(c) for c in tk.iterate(s.env)],
                             "stack": [closure_json(c) for c in tk.iterate(s.stack)]},
    "ham-j": ham_token("j"),
    "ham-k": ham_token("k"),
    "siam": lambda index, s: {"node": s.node.ordinal,
                              "tpath": siam.tpath_str(s.node.rh_type, s.star)},
}


def machine_index(name, term):
    if name == "siam":
        return siam.DerivationIndex(mt.infer_star_derivation(term, FUEL), term)
    return TermIndex(term)


def oracle_lines(name, term):
    """The trace of ``name`` on ``term``, from its own step loop and the oracle;
    a machine that declares no footprint writes zeros."""
    machine = harness.MACHINES[name]
    index = machine_index(name, term)
    step = machine.step()
    label, cost, s = "init", 0, machine.initial(index)
    lines = []
    while True:
        pos = s.pos
        event = {"step": len(lines), "machine": name, "label": label, "dir": machine.dir(s),
                 "path": path_str(pos), "subterm": pretty(resolve(index.root, pos)[0]),
                 "token": TOKEN[name](index, s), "cost": cost,
                 "footprint": dict(zip(("lp", "markers", "deepCells"),
                                       (0, 0, 0) if machine.footprint is None
                                       else machine.footprint(s, tk.Reach())))}
        lines.append(json.dumps(event, ensure_ascii=False))
        result = step(index, s)
        if type(result) is not tuple:
            return lines
        label, s, cost = result


def traced_lines(name, term):
    _, events = traced(harness.run_machine, name, term, FUEL)
    return [ev.to_line() for ev in events]


# ---------------------------------------------------------------------------
# Inputs


FAMILIES = (
    [(f"t_{n}", harness.family_tn(n)) for n in range(1, 9)]
    + [(f"r({k},{h})", harness.family_rkh(k, h)) for k in range(1, 4) for h in range(1, 4)]
    + [(f"c_{n} I I", church_ii(n)) for n in range(1, 5)]
    + [("two two I I", parse("two two I I", DEFS))]
)


def trace_items(name, term, cap):
    """Items in the unfolded trace of ``name`` on ``term``; stops above ``cap``."""
    memo: dict = {}
    total = 0
    for _, s, _ in reporting.trajectory(harness.MACHINES[name], machine_index(name, term), FUEL):
        total += sum(unfolded(root, memo) for root in ROOTS[name](s))
        if name == "pam":
            total += len(s.history)
        if total > cap:
            break
    return total


# The unfolded trace of a corpus term can be far too large to write: one term
# of gen_corpus(42, 200, 40) unfolds to about 9e11 items, and no format that
# writes each state's token out in full can ever trace it.  The oracle test
# keeps the terms whose traces hold at most ITEM_CAP items on every machine:
# 108 of the corpus's 132 terms.
ITEM_CAP = 10**4
KEPT = 108


@pytest.fixture(scope="module")
def small_corpus(corpus):
    kept = [term for term in corpus
            if all(trace_items(m, term, ITEM_CAP) <= ITEM_CAP for m in harness.MACHINES)]
    assert (len(corpus), len(kept)) == (132, KEPT)
    return kept


@pytest.mark.parametrize("name", list(harness.MACHINES))
def test_trace_lines_match_the_oracle_on_the_families(name):
    for label, term in FAMILIES:
        assert traced_lines(name, term) == oracle_lines(name, term), label


@pytest.mark.parametrize("name", list(harness.MACHINES))
def test_trace_lines_match_the_oracle_on_the_corpus(name, small_corpus):
    for term in small_corpus:
        assert traced_lines(name, term) == oracle_lines(name, term), pretty(term)


def test_each_item_is_written_once_per_run():
    top = TermIndex(harness.family_tn(4)).top
    shared = tk.from_list([ljam.LoggedPosition(top.fun, None)])
    a = ljam.LoggedPosition(top.fun.fun, shared)
    b = ljam.LoggedPosition(top.fun.fun.fun, shared)
    tape = tk.from_list([a, tk.MARKER, b])
    assert json.loads(plain_text(lambda enc: enc.list(tape))) == tape_json(tape)
    enc = tk.Encoder()
    assert enc.list(tape) == '[1, "p", 2]'
    assert len(enc.memo) == 4  # the marker, a, b and the item they share
    # the item they share first, then each of them, which refers to it by id
    assert [json.loads(d) for d in enc.take_defs()] == [
        {"def": 0, "var": "Fun", "scope": "", "flavor": "global", "log": []},
        {"def": 1, "var": "Fun/Fun", "scope": "", "flavor": "global", "log": [0]},
        {"def": 2, "var": "Fun/Fun/Fun", "scope": "", "flavor": "global", "log": [0]}]
    assert enc.list(tk.from_list([b])) == "[2]" and enc.take_defs() == ()


def test_logged_positions_write_their_machines_texts():
    # x sits one argument under its binder, which sits under none: inner ==
    # level, so an IAM and a JAM item share var and log, and only their type
    # says which text to write
    index = TermIndex(parse("(\\x.(\\y.y) x) (\\z.z)"))
    x = index.top.fun.body.arg
    assert x.inner == x.level == 1
    log = tk.cons(ljam.LoggedPosition(index.top.arg.body, None), None)
    entry = '{"var": "Arg/Body", "scope": "", "flavor": "global", "log": []}'
    assert plain_text(lambda enc: enc.text(liam.LoggedPosition(x, log))) == (
        '{"var": "Fun/Body/Arg", "scope": "Fun", "flavor": "local", "log": [%s]}' % entry)
    assert plain_text(lambda enc: enc.text(ljam.LoggedPosition(x, log))) == (
        '{"var": "Fun/Body/Arg", "scope": "", "flavor": "global", "log": [%s]}' % entry)


def test_encoding_needs_no_recursion_headroom():
    # each log holds one position whose log nests one level deeper, and each
    # logged closure's environment holds one closure one level deeper; both
    # forms are written, and the unfolded texts of all the levels are
    # quadratic in depth: keep it small
    script = """
import sys
from lamrun import ham, ljam, tokens as tk
from lamrun.syntax import TermIndex, parse
sys.setrecursionlimit(1000)
top = TermIndex(parse("(\\\\x.x) (\\\\y.y)")).top
log = env = None
for _ in range(1200):
    log = tk.cons(ljam.LoggedPosition(top.fun, log), None)
    env = tk.cons(ham.LoggedClosure(top.arg, env, None), None)
shared, enc = tk.Encoder(), tk.Encoder(unfolded=True)
shared.list(log), shared.list(env)
log, env = enc.list(log), enc.list(env)
print(len(shared.take_defs()), log.count('"log": ['), env.count('"env": ['))
"""
    done = subprocess.run([sys.executable, "-c", script], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2400", "1200", "1200"]


# ---------------------------------------------------------------------------
# The shared form: each item that holds lists is defined once, then named by id


def shared_events(name, term):
    _, events = traced(harness.run_machine, name, term, FUEL, shared=True)
    return events


def list_entries(token: dict) -> int:
    """The entries of a token's top-level lists."""
    return sum(len(v) for v in token.values() if type(v) is list)


# bytes of an event's token and definitions per top-level list entry and per
# item defined (at most 58 on the families and the corpus)
BYTES_PER_ENTRY = 64


def assert_linear(name, term, label):
    for ev in shared_events(name, term):
        size = len(ev.token_json.encode()) + sum(len(d.encode()) for d in ev.defs)
        bound = BYTES_PER_ENTRY * (1 + list_entries(json.loads(ev.token_json)) + len(ev.defs))
        assert size <= bound, (label, ev.step, size, bound)


@pytest.mark.parametrize("name", list(harness.MACHINES))
def test_shared_events_are_linear_in_their_entries(name, corpus):
    """A shared event writes each top-level list entry as an id, a marker or a
    flat item, and each item it defines once, so its size does not grow with
    how deeply the items it names nest; the unfolded form of some corpus terms
    would hold 10¹¹ items."""
    for label, term in FAMILIES:
        assert_linear(name, term, label)
    for term in corpus:
        assert_linear(name, term, pretty(term))


@pytest.mark.parametrize("name", list(harness.MACHINES))
def test_a_shared_trace_unfolds_to_the_unfolded_one(name, small_corpus):
    """The shared JSONL lines alone, read back with ``conftest.SharedReader``,
    give the unfolded lines byte for byte: a definition always comes before
    its id.  The unfolded lines are the encoder's own unfolded form."""
    for term in [term for _, term in FAMILIES] + small_corpus:
        reader = SharedReader()
        lines = []
        for ev in shared_events(name, term):
            record = json.loads(ev.to_line())
            reader.define(record.pop("defs", ()))
            record["token"] = json.loads(reader.text(record["token"]))
            lines.append(json.dumps(record, ensure_ascii=False))
        assert lines == traced_lines(name, term), pretty(term)


def test_every_item_is_defined_once_and_before_use():
    for name in harness.MACHINES:
        for label, term in FAMILIES:
            defined: set = set()
            for ev in shared_events(name, term):
                for d in map(json.loads, ev.defs):
                    refs = [x for v in d.values() if type(v) is list for x in v if type(x) is int]
                    assert set(refs) <= defined and d["def"] == len(defined), (name, label)
                    defined.add(d["def"])
                token = json.loads(ev.token_json)
                refs = [x for v in token.values() if type(v) is list for x in v if type(x) is int]
                assert set(refs) <= defined, (name, label, ev.step)


def cli_trace(tmp_path, text, machine):
    out = tmp_path / f"{machine}.jsonl"
    assert main(["run", text, "--machine", machine, "--trace", "jsonl", "--out", str(out)]) == 0
    return out.read_bytes()


def test_traces_whose_unfolded_form_cannot_be_written(tmp_path, corpus):
    """Unfolded, JAM's trace of two two two I I is gigabytes, HAM-J's on
    corpus term 52 exhausts memory, and JAM's on c_40 I I never finishes."""
    trace = cli_trace(tmp_path, pretty(parse("two two two I I", DEFS)), "jam")
    assert len(trace) < 10**6 and trace.count(b"\n") == 864 + 1
    trace = cli_trace(tmp_path, pretty(corpus[52]), "ham-j")
    assert len(trace) < 10**6 and trace.count(b"\n") == 313 + 1
    trace = cli_trace(tmp_path, pretty(church_ii(40)), "jam")
    assert len(trace) < 10**6 and trace.count(b"\n") == 289 + 1
