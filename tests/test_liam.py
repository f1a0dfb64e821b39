import pytest

from lamrun import harness, liam, tokens as tk
from lamrun.equivalence import walk_invariants
from lamrun.reporting import FINAL, Stuck, step_back, trajectory
from lamrun.syntax import ARG, BODY, FUN, TermIndex, parse

from conftest import at, church_ii, reference_cells, same_item, token, traced


def test_initial_state(running_example):
    s = liam.initial(TermIndex(running_example))
    assert (s.pos, s.dir, s.tape, s.log) == ((), liam.DOWN, None, None)


def test_identity_is_immediately_final():
    index = TermIndex(parse("\\x.x"))
    assert isinstance(liam.step(index, liam.initial(index)), type(FINAL))
    assert liam.run(parse("\\x.x"), 10).length == 0


def test_first_transition_pushes_marker(running_example):
    index = TermIndex(running_example)
    result = liam.step(index, liam.initial(index))
    assert type(result) is tuple
    label, state, _ = result
    assert label == "p1"
    assert state.pos == (FUN,)
    assert isinstance(state.tape.head, tk.Marker)


def test_var_builds_local_logged_position(running_example):
    index = TermIndex(running_example)
    s = liam.IamState(at(index, (FUN, FUN, BODY, BODY, FUN)), tk.cons(tk.MARKER, tk.nil),
                      tk.nil, liam.DOWN, 1)
    label, state, cost = liam.step(index, s)
    assert label == "var"
    lp = state.tape.head
    assert lp.var is s.node
    assert type(lp) is liam.LoggedPosition and lp.log is None
    assert lp.var.binder is at(index, (FUN, FUN, BODY))
    assert state.pos == (FUN, FUN, BODY)
    assert state.dir == liam.UP
    assert cost == 0


def test_bt2_returns_only_to_the_logged_variables_binder():
    top = TermIndex(parse("(\\x.x) (\\y.y)")).top
    y, x = liam.LoggedPosition(top.arg.body, None), liam.LoggedPosition(top.fun.body, None)
    label, state, _ = liam.step(None, liam.IamState(top.arg, tk.cons(y, tk.nil), tk.nil,
                                                    liam.DOWN, 1))
    assert label == "bt2" and state.node is y.var and state.dir == liam.UP
    assert isinstance(liam.step(None, liam.IamState(top.arg, tk.cons(x, tk.nil), tk.nil,
                                                    liam.DOWN, 1)), Stuck)


def test_var_cost_is_inner_level(running_example):
    # the variable under one argument pops one log entry and costs 1
    report, events = traced(liam.run, running_example, 100)
    var_events = [e for e in events if e.label == "var"]
    assert [e.cost for e in var_events] == [0, 0, 1]
    assert report.var_cost_sum == 1


def test_final_state_shape(running_example):
    report = liam.run(running_example, 100)
    final = report.final_state
    assert final.dir == liam.DOWN and final.tape is None
    assert final.pos == (FUN, ARG)


def test_debug_invariants_hold(running_example, duplication_example):
    for term in (running_example, duplication_example):
        walk_invariants(liam.MACHINE, TermIndex(term), 100)


def test_ram_cost_bound(running_example):
    report = liam.run(running_example, 100)
    vars_ = report.per_label["var"]
    assert report.ram_cost_bound == (report.length - vars_) + vars_ * 11


def test_bideterminism_on_examples(running_example, duplication_example):
    for term in (running_example, duplication_example):
        index = TermIndex(term)
        memo = {}
        prev = None
        for label, state, _ in trajectory(liam.MACHINE, index, 1000):
            if prev is not None:
                back = step_back(liam.step, index, state)
                assert back is not None
                blabel, bstate = back
                assert blabel == label
                assert liam.states_related(bstate, prev, same_item, memo)
                fwd = liam.step(index, bstate)
                assert type(fwd) is tuple
                assert liam.states_related(fwd[1], state, same_item, memo)
            prev = state


def test_bideterminism_on_corpus(corpus):
    for term in corpus[:40]:
        index = TermIndex(term)
        memo = {}
        prev = None
        for label, state, _ in trajectory(liam.MACHINE, index, 10**6):
            if prev is not None:
                blabel, bstate = step_back(liam.step, index, state)
                assert blabel == label
                assert liam.states_related(bstate, prev, same_item, memo)
            prev = state


@pytest.mark.parametrize("term", [harness.family_tn(6), church_ii(10)], ids=["t_6", "c_10 I I"])
def test_step_back_gives_back_the_cell_count(term):
    # every state carries its token's cells, counted anew here, and a dual
    # step from a state gives its predecessor's count back
    index = TermIndex(term)
    prev = None
    for step, (label, state, _) in enumerate(trajectory(liam.MACHINE, index, 10**6)):
        assert state.cells == reference_cells(state.tape, state.log), step
        if prev is not None:
            blabel, bstate = step_back(liam.step, index, state)
            assert blabel == label
            assert bstate.cells == prev.cells == reference_cells(bstate.tape, bstate.log), step
        prev = state


def test_initial_state_has_no_predecessor(running_example):
    index = TermIndex(running_example)
    assert step_back(liam.step, index, liam.initial(index)) is None


def test_tape_lift(corpus):
    # appending a tape suffix preserves the label sequence of any run prefix
    for term in corpus[:25]:
        index = TermIndex(term)
        base = [(lbl, s.node, s.dir) for lbl, s, _ in trajectory(liam.MACHINE, index, 10**6)]
        n = len(base) - 1
        for suffix in ([tk.MARKER], [tk.MARKER, tk.MARKER]):
            s = liam.IamState(index.top, tk.from_list(suffix), tk.nil, liam.DOWN, len(suffix))
            got = [(None, s.node, s.dir)]
            for _ in range(n):
                r = liam.step(index, s)
                assert type(r) is tuple
                label, s, _ = r
                got.append((label, s.node, s.dir))
            assert got[1:] == base[1:]


def test_backtracking_well_bracketed(corpus, running_example):
    for term, fuel in [(running_example, 1000)] + [(t, 10**6) for t in corpus[:50]]:
        labels, _ = walk_invariants(liam.MACHINE, TermIndex(term), fuel)
        assert labels["bt1"] == labels["bt2"]


def test_bt_flag_marks_backtracking(running_example):
    _, events = traced(liam.run, running_example, 100)
    flagged = [ev.step for ev in events if token(ev)["bt"]]
    assert flagged == [12, 14]  # down states whose tape head is a logged position
