import json

import pytest

from lamrun import lpam, tokens as tk
from lamrun.equivalence import walk_invariants
from lamrun.lpam import History, UndefinedLookup, phi_pow
from lamrun.syntax import ARG, BODY, FUN, TermIndex, parse

from conftest import at


# positions for the history tests: the nodes at Fun, Arg and Fun/Body of (λx.x) (λy.y)
_TOP = TermIndex(parse("(\\x.x) (\\y.y)")).top
F, A, B = _TOP.fun, _TOP.arg, _TOP.fun.body


def history_json(h):
    """The history as a PAM trace token writes it, oldest entry first."""
    return json.loads(tk.Encoder().list(h.entries()))


def test_phi_zero_power_is_identity():
    h = History().append(F, 0)
    assert phi_pow(h, 1, 0) == 1
    assert phi_pow(h, 7, 0) == 7  # no lookups, no bounds involved


def test_phi_single_entry():
    h = History().append(F, 0)
    assert phi_pow(h, 1, 1) == 0


def test_phi_chain():
    h = History().append(F, 0).append(A, 0).append(B, 0)
    assert phi_pow(h, 2, 1) == 0
    assert h.entry(2) == (A, 0)


def test_phi_undefined_on_zero():
    h = History().append(F, 0)
    with pytest.raises(UndefinedLookup):
        phi_pow(h, 1, 2)  # second hop reads entry 0


def test_phi_stops_at_its_own_version():
    h1 = History().append(F, 0)
    h2 = h1.append(A, 1)  # appends in place: h1 and h2 share one array
    assert h1.array is h2.array and phi_pow(h2, 2, 1) == 1
    with pytest.raises(UndefinedLookup):
        phi_pow(h1, 2, 1)  # entry 2 is in the array, but past h1's length


def test_history_is_persistent():
    h1 = History().append(F, 0)
    h2 = h1.append(A, 1)
    assert len(h1) == 1 and len(h2) == 2
    assert history_json(h1) == [{"pos": "Fun", "idx": 0}]


def test_history_extends_an_older_version():
    h1 = History().append(F, 0)
    h2 = h1.append(A, 1)
    h3 = h1.append(B, 1)  # h1 extended a second time
    h4 = h2.append(F, 2)
    assert h1.entries() == [(F, 0)]
    assert h2.entries() == [(F, 0), (A, 1)]
    assert h3.entries() == [(F, 0), (B, 1)]
    assert h4.entries() == [(F, 0), (A, 1), (F, 2)]
    assert (h2.entry(2), h3.entry(2), h4.entry(3)) == ((A, 1), (B, 1), (F, 2))
    with pytest.raises(UndefinedLookup):
        h3.entry(3)


def test_var_keeps_index_at_level_zero(running_example):
    index = TermIndex(running_example)
    s = lpam.PamState(at(index, (FUN, FUN, BODY, BODY, FUN)), History(), 0,
                      tk.cons(tk.MARKER, tk.nil), lpam.DOWN)
    label, state, cost = lpam.step(index, s)
    assert label == "var" and state.index == 0
    assert state.tape.head is s.node
    assert cost == 0


def test_arg_appends_indexed_position(running_example):
    index = TermIndex(running_example)
    pos = at(index, (FUN, FUN, BODY, BODY, FUN))
    s = lpam.PamState(index.top.fun, History(), 0, tk.cons(pos, tk.cons(tk.MARKER, tk.nil)),
                      lpam.UP)
    label, state, _ = lpam.step(index, s)
    assert label == "arg"
    assert state.history.entries() == [(pos, 0)]
    assert state.index == 1
    assert state.pos == (ARG,)


def test_jmp_decrements_index(running_example):
    index = TermIndex(running_example)
    pos = at(index, (FUN, FUN, BODY, BODY, FUN))
    h = History().append(pos, 0)
    s = lpam.PamState(index.top.arg, h, 1, tk.cons(at(index, (ARG, BODY)), tk.nil), lpam.UP)
    label, state, _ = lpam.step(index, s)
    assert label == "jmp"
    assert state.node is pos and state.index == 0
    assert state.tape.head is at(index, (ARG, BODY))


def test_final_history_running_example(running_example):
    report = lpam.run(running_example, 100)
    final = report.final_state
    assert final.index == 3
    assert [e["pos"] for e in history_json(final.history)] == [
        "Fun/Fun/Body/Body/Fun", "Arg/Body", "Fun/Fun/Body/Body/Arg"]


def test_debug_invariants(running_example, duplication_example, corpus):
    for term in [running_example, duplication_example] + corpus[:40]:
        walk_invariants(lpam.MACHINE, TermIndex(term), 10**6)


def test_identity_final():
    assert lpam.run(parse("\\x.x"), 10).length == 0
