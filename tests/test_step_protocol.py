"""The step protocol: a machine's ``step`` returns its transition as a plain
``(label, state, cost)`` tuple, or None at a final state, and raises when it
cannot move; every transition declares its cost.  A variable transition costs
its lookup, read off the state it leaves: the focused occurrence's inner level
where the machine pops a log, its de Bruijn index + 1 where it walks an
environment.  Every other transition costs 1, and so does each of the SIAM's.
A stuck step, a raised ``Stuck`` or a lookup's IndexError, ends its walk with
a StuckError."""
import ast
from dataclasses import replace

import pytest

from lamrun import ham, harness, kam, liam, ljam, lpam, multitypes as mt, reporting, siam
from lamrun import tokens as tk
from lamrun.reporting import DOWN, UP, StuckError, step_back, trajectory
from lamrun.syntax import TermIndex, parse, whnf_trace

from conftest import FAMILIES, SRC

FUEL = 10**6


def inner(s):
    return s.node.inner


def db_index_plus_one(s):
    return s.node.term.index + 1


VAR_COST = {
    "iam": {"var": inner},
    "jam": {"var": inner},
    "pam": {"var": inner},
    "kam": {"var": db_index_plus_one},
    "ham-j": {"var_j": inner},
    "ham-k": {"var_k": db_index_plus_one},
    "siam": {},
}


@pytest.mark.parametrize("name", list(VAR_COST))
def test_every_transition_declares_its_cost(name, corpus):
    machine, var_cost = harness.MACHINES[name], VAR_COST[name]
    var_costs = set()
    for term in FAMILIES + corpus:
        index = TermIndex(term)
        if name == "siam":
            index = siam.DerivationIndex(mt.star_derivation(index, whnf_trace(term, FUEL)), term)
        before = None
        for record in trajectory(machine, index, FUEL):
            assert type(record) is tuple and len(record) == 3
            label, state, cost = record
            assert type(cost) is int
            if before is None:
                assert label is None and cost == 0
            elif label in var_cost:
                assert cost == var_cost[label](before), (name, label)
                var_costs.add(cost)
            else:
                assert cost == 1, (name, label)
            before = state
    # the variable transitions met lookups of more than one length
    assert not var_cost or len(var_costs) > 1


# Each stuck branch of each machine, reached from a hand-built state of
# ``(\x.x) (\y.y)``: ``top.fun`` is λx, ``top.fun.body`` x, ``top.arg`` λy.
# A builder takes the term's index and returns the state; the SIAM's takes
# the derivation's index.  Each case ends its walk at its first step.
def _lp(n):
    return tk.cons(liam.LoggedPosition(n, None), tk.nil)


def _cp(n):
    return tk.cons(ham.ClosedPosition(n, tk.nil, tk.nil), tk.nil)


def _star_abstraction(index):
    return next(n for n in mt.iter_nodes(index.deriv) if type(n) is mt.DLamStar)


STUCK = [
    ("iam", lambda i: liam.IamState(i.top.arg, _lp(i.top.fun.body), tk.nil, DOWN, 1),
     "logged position on tape does not match the focused abstraction"),
    ("iam", lambda i: liam.IamState(i.top, tk.nil, tk.nil, UP, 0),
     "up state at the root of a closed term"),
    ("iam", lambda i: liam.IamState(i.top.fun, tk.nil, tk.nil, UP, 0),
     "up state in function position with empty tape"),
    ("iam", lambda i: liam.IamState(i.top.arg, tk.nil, tk.nil, UP, 0),
     "up state in argument position with empty log"),
    ("jam", lambda i: ljam.JamState(i.top.arg, _lp(i.top.arg.body), tk.nil, DOWN),
     "down state with a logged position on the tape"),
    ("jam", lambda i: ljam.JamState(i.top, tk.nil, tk.nil, UP),
     "up state at the root of a closed term"),
    ("jam", lambda i: ljam.JamState(i.top.fun, tk.nil, tk.nil, UP),
     "up state in function position with empty tape"),
    ("jam", lambda i: ljam.JamState(i.top.arg, tk.nil, tk.nil, UP),
     "up state in argument position with empty log"),
    ("pam", lambda i: lpam.PamState(i.top.arg, lpam.History(), 0,
                                    tk.cons(i.top.arg.body, tk.nil), DOWN),
     "down state with a position on the tape"),
    ("pam", lambda i: lpam.PamState(i.top, lpam.History(), 0, tk.nil, UP),
     "up state at the root of a closed term"),
    ("pam", lambda i: lpam.PamState(i.top.fun, lpam.History(), 0, tk.nil, UP),
     "up state in function position with empty tape"),
    # a jmp at index 0 looks up an entry no history has: the lookup's IndexError
    ("pam", lambda i: lpam.PamState(i.top.arg, lpam.History(), 0, tk.nil, UP),
     "history entry 0 of 0"),
    # an environment that does not close the focused variable: the lookup's IndexError
    ("kam", lambda i: kam.KamState(i.top.fun.body, tk.nil, tk.nil),
     "nth past end of list"),
    ("ham-j", lambda i: ham.HamState(i.top.arg, tk.nil, tk.nil, _cp(i.top.arg.body), DOWN),
     "down state with a closed position on the tape"),
    # the same in the HAM, whose J mode drops the environment past the binder
    ("ham-j", lambda i: ham.HamState(i.top.fun.body, tk.nil, tk.nil, tk.nil, DOWN),
     "drop past end of list"),
    ("ham-j", lambda i: ham.HamState(i.top, tk.nil, tk.nil, tk.nil, UP),
     "up state at the root of a closed term"),
    ("ham-j", lambda i: ham.HamState(i.top.fun, tk.nil, tk.nil, tk.nil, UP),
     "up state in function position with empty tape"),
    ("ham-j", lambda i: ham.HamState(i.top.fun.body, tk.nil, tk.nil, tk.nil, UP),
     "up state leaving a body with an empty environment"),
    ("ham-j", lambda i: ham.HamState(i.top.arg, tk.nil, tk.nil, tk.nil, UP),
     "up state in argument position with empty log"),
    ("siam", lambda d: siam.SiamState(_star_abstraction(d), 1, siam.TO_LEAVES),
     "star abstraction with a ★ number other than 0"),
    ("siam", lambda d: siam.SiamState(d.deriv, 0, siam.TO_ROOT),
     "rootward state at the final judgement"),
]


@pytest.mark.parametrize("name,build,reason", STUCK,
                         ids=[f"{name}-{reason}" for name, _, reason in STUCK])
def test_every_stuck_branch_ends_the_walk(name, build, reason):
    term = parse("(\\x.x) (\\y.y)")
    index = TermIndex(term)
    if name == "siam":
        index = siam.DerivationIndex(mt.infer_star_derivation(term), term)
    state = build(index)
    walk = trajectory(replace(harness.MACHINES[name], initial=lambda _: state), index)
    assert next(walk)[1] is state
    with pytest.raises(StuckError) as stuck:
        next(walk)
    assert str(stuck.value) == f"{name} stuck: {reason}"


@pytest.mark.parametrize("name", list(harness.MACHINES))
def test_a_final_state_steps_to_none(name, running_example):
    # and a reversible machine's initial state steps back to None
    machine, index = harness.MACHINES[name], TermIndex(running_example)
    if name == "siam":
        index = siam.DerivationIndex(mt.infer_star_derivation(running_example), running_example)
        report, _ = siam.run_index(index, FUEL)
    else:
        report = reporting.run(machine, index, FUEL)
    assert report.outcome == "final" and report.length > 0
    step = machine.step()
    assert step(index, report.final_state) is None
    if name in ("iam", "siam"):
        assert step_back(step, index, machine.initial(index)) is None


def _names(node) -> set:
    """The names ``node`` binds or reads: a variable, an attribute, an import."""
    return {getattr(node, attr, None) for attr in ("id", "attr", "name")}


def test_no_step_returns_a_stuck_or_a_final_sentinel():
    # a step ends its walk one way: it returns None at a final state and
    # raises a Stuck when it cannot move
    found = []
    for path in sorted((SRC / "lamrun").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            returns_stuck = (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
                             and "Stuck" in _names(node.value.func))
            if returns_stuck or "FINAL" in _names(node):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
