"""The step protocol: a machine's ``step`` returns FINAL, a ``Stuck``, or a
transition as a plain ``(label, state, cost)`` tuple, and every transition
declares its cost.  A variable transition costs its lookup, read off the state
it leaves: the focused occurrence's inner level where the machine pops a log,
its de Bruijn index + 1 where it walks an environment.  Every other transition
costs 1, and so does each of the SIAM's."""
import pytest

from lamrun import harness, multitypes as mt, siam
from lamrun.reporting import trajectory
from lamrun.syntax import TermIndex, whnf_trace

from conftest import FAMILIES

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
