from lamrun import ljam, tokens as tk
from lamrun.equivalence import walk_invariants
from lamrun.reporting import trajectory
from lamrun.syntax import ARG, BODY, FUN, TermIndex, parse

from conftest import at


def test_identity_final():
    report = ljam.run(parse("\\x.x"), 10)
    assert report.length == 0 and report.up_length == 0


def test_var_stores_global_position_and_whole_log(running_example):
    index = TermIndex(running_example)
    x = at(index, (FUN, FUN, BODY, BODY, FUN))
    log = tk.cons(ljam.LoggedPosition(x, None), None)
    s = ljam.JamState(at(index, (ARG, BODY)), tk.nil, log, ljam.DOWN)
    label, state, _ = ljam.step(index, s)
    assert label == "var"
    lp = state.tape.head
    assert lp.var is s.node
    assert type(lp) is ljam.LoggedPosition
    assert lp.log is log  # shared, not copied
    assert state.log is log  # inner level 0 pops nothing


def test_jmp_restores_position_and_log(running_example):
    index = TermIndex(running_example)
    px = ljam.LoggedPosition(at(index, (FUN, FUN, BODY, BODY, FUN)), None)
    pz = ljam.LoggedPosition(at(index, (ARG, BODY)), tk.cons(px, None))
    s = ljam.JamState(at(index, (ARG,)), tk.cons(pz, tk.nil), tk.cons(px, tk.nil), ljam.UP)
    label, state, _ = ljam.step(index, s)
    assert label == "jmp"
    assert state.pos == (FUN, FUN, BODY, BODY, FUN)
    assert state.log is px.log  # the stored log, here empty
    assert state.tape.head is pz  # tape untouched


def test_depth_examples(running_example):
    index = TermIndex(running_example)
    assert ljam.depth(ljam.initial(index)) == 0
    inner = ljam.LoggedPosition(at(index, (ARG, BODY)), None)
    outer = ljam.LoggedPosition(at(index, (FUN, FUN, BODY, BODY, ARG)), tk.cons(inner, None))
    s = ljam.JamState(index.top, tk.nil, tk.cons(outer, tk.nil), ljam.DOWN)
    assert ljam.depth(s) == 2


def test_depth_equals_var_count(running_example, corpus):
    for term in [running_example] + corpus[:30]:
        index = TermIndex(term)
        vars_seen = 0
        for label, state, _ in trajectory(ljam.MACHINE, index, 10**6):
            vars_seen += label == "var"
            assert ljam.depth(state) == vars_seen


def test_depth_of_deeply_nested_log():
    index = TermIndex(parse("(\\x.x) (\\y.y)"))
    log = None
    for _ in range(30_000):
        log = tk.cons(ljam.LoggedPosition(index.top.fun, log), None)
    memo = {}
    assert ljam.depth_of(log, memo) == 30_000
    assert ljam.depth_of(log.head.log, memo) == 29_999


def test_debug_invariants(running_example, duplication_example):
    for term in (running_example, duplication_example):
        walk_invariants(ljam.MACHINE, TermIndex(term), 100)


def test_up_length_counts_up_transitions(running_example):
    report = ljam.run(running_example, 100)
    expected = sum(report.per_label.get(lbl, 0) for lbl in ("p3", "p4", "arg", "jmp"))
    assert report.up_length == expected == 6


def test_log_sharing_keeps_var_cheap(corpus):
    # a var transition adds O(1) new cells: the stored log is shared, not copied
    for term in corpus[:30]:
        index = TermIndex(term)
        prev_cells = 0
        prev = None
        for label, state, _ in trajectory(ljam.MACHINE, index, 10**6):
            cells = ljam.state_footprint(state, tk.Reach())[2]
            if label == "var":
                assert cells - prev_cells <= 2 + prev.node.inner
            prev_cells = cells
            prev = state


def test_up_phase_bounds(running_example, corpus):
    for term, fuel in [(running_example, 1000)] + [(t, 10**6) for t in corpus[:50]]:
        index = TermIndex(term)
        labels, _ = walk_invariants(ljam.MACHINE, index, fuel)
        assert sum(labels[lbl] for lbl in ljam.UP_LABELS) <= labels["var"] ** 2 * index.size
