import pytest

from lamrun import kam, tokens as tk
from lamrun.equivalence import walk_invariants
from lamrun.reporting import trajectory
from lamrun.syntax import ARG, BODY, FUN, TermIndex, parse, whnf_trace

from conftest import at, plain_text, token, traced


def test_identity_final():
    assert kam.run(parse("\\x.x"), 10).length == 0


def test_app_pushes_argument_closure(running_example):
    index = TermIndex(running_example)
    label, state, _ = kam.step(index, kam.initial(index))
    assert label == "app"
    clo = state.stack.head
    assert clo.node is index.top.arg and clo.env is None
    assert state.pos == (FUN,)


def test_var_restores_closure_env(running_example):
    _, events = traced(kam.run, running_example, 100)
    # after the first var the machine hops to the outer argument with its env
    first_var = next(ev for ev in events if ev.label == "var")
    assert first_var.subterm_path == "Arg"
    assert token(first_var)["env"] == []


def test_ii_run_length():
    report = kam.run(parse("I I", {"I": "\\z.z"}), 100)
    assert report.length == 3
    assert report.per_label == {"app": 1, "abs": 1, "var": 1}


def test_running_example_counts(running_example):
    report = kam.run(running_example, 100)
    assert report.length == 9
    assert report.per_label == {"app": 3, "abs": 3, "var": 3}


def test_length_identity_and_beta(running_example, duplication_example, corpus):
    for term in [running_example, duplication_example] + corpus:
        report = kam.run(term, 10**6)
        var, abs_ = report.per_label.get("var", 0), report.per_label.get("abs", 0)
        assert report.length == var + 2 * abs_
        assert report.beta_count == abs_ == len(whnf_trace(term, 10**6))


def test_env_persistence(running_example):
    index = TermIndex(running_example)
    captured = []
    for label, state, _ in trajectory(kam.MACHINE, index, 100):
        captured.append((state, plain_text(lambda enc: kam.snapshot(index, state, enc))))
    for state, snap in captured:
        assert plain_text(lambda enc: kam.snapshot(index, state, enc)) == snap


def test_debug_mode(running_example, duplication_example):
    for term in (running_example, duplication_example):
        walk_invariants(kam.MACHINE, TermIndex(term), 100)


def test_debug_mode_flags_an_environment_that_does_not_close(running_example):
    index = TermIndex(running_example)
    y = at(index, (FUN, FUN, BODY, BODY, ARG))  # y, bound two λs up
    short = kam.Closure(y, tk.cons(kam.Closure(index.top.arg, None), None))
    with pytest.raises(AssertionError, match="state environment"):
        kam.check_invariants(index, None, kam.KamState(y, short.env, None), {}, {})
    with pytest.raises(AssertionError, match="closure environment"):
        kam.check_invariants(index, None,
                             kam.KamState(index.top.arg, None, tk.cons(short, None)), {}, {})
