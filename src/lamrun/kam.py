"""Krivine abstract machine with explicit positions.

Environments are de Bruijn-indexed persistent lists of closures (entry 0 is
the innermost binder), so capturing an environment in a closure is a pointer
copy and the name search of textbook presentations becomes positional lookup.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import reporting, tokens as tk
from .reporting import FINAL, Machine, NodeState, Stuck
from .syntax import DEFAULT_FUEL, App, Lam, Node, Term, TermIndex, Var, path_str


@tk.item('{"pos": %s, "env": %s}', lambda c: (path_str(c.node.path),), "env")
@dataclass(slots=True, eq=False)
class Closure:
    node: Node
    env: Optional[tk.Cell]  # list of Closure


@dataclass(slots=True, eq=False)
class KamState(NodeState):
    node: Node
    env: Optional[tk.Cell]
    stack: Optional[tk.Cell]


def initial(index: TermIndex) -> KamState:
    return KamState(index.top, tk.nil, tk.nil)


def step(index: TermIndex, s: KamState):
    n = s.node
    t = n.term
    if isinstance(t, App):
        return ("app", KamState(n.fun, s.env, tk.cons(Closure(n.arg, s.env), s.stack)), 1)
    if isinstance(t, Lam):
        if s.stack is None:
            return FINAL
        return ("abs", KamState(n.body, tk.cons(s.stack.head, s.env), s.stack.tail), 1)
    if tk.length(s.env) <= t.index:
        return Stuck("environment does not close the focused variable")
    clo = tk.nth(s.env, t.index)
    return ("var", KamState(clo.node, clo.env, s.stack), t.index + 1)


def snapshot(index: TermIndex, s: KamState, enc: tk.Encoder) -> str:
    return f'{{"env": {enc.list(s.env)}, "stack": {enc.list(s.stack)}}}'


def state_footprint(s: KamState, reach: tk.Reach) -> tuple:
    # top-level entries of both structures; closures have no markers
    return tk.length(s.env) + tk.length(s.stack), 0, reach.update(s.env, s.stack)


def _max_free(index: TermIndex) -> dict:
    """The largest free de Bruijn index under each node (negative when the
    subterm is closed), children first: ``index.nodes`` lists parents first."""
    out: dict = {}
    for n in reversed(index.nodes):
        t = n.term
        if isinstance(t, Var):
            out[n] = t.index
        elif isinstance(t, Lam):
            out[n] = out[n.body] - 1
        else:
            out[n] = max(out[n.fun], out[n.arg])
    return out


def check_invariants(index: TermIndex, label, s: KamState, per_label: dict, ctx: dict):
    if not ctx:
        ctx.update(verified=set(), max_free=_max_free(index))
    verified, max_free = ctx["verified"], ctx["max_free"]
    assert tk.length(s.env) > max_free[s.node], "state environment does not close the focus"
    for c in tk.new_items(verified, s.stack, s.env):
        assert tk.length(c.env) > max_free[c.node], "closure environment does not close its subterm"


def run(term: Term, fuel: int = DEFAULT_FUEL, sink: Optional[Callable] = None):
    report = reporting.run(MACHINE, TermIndex(term), fuel, sink)
    report.beta_count = report.per_label.get("abs", 0)
    return report


MACHINE = Machine(
    "kam", initial, lambda: step, snapshot, state_footprint,
    launch=lambda term, fuel, **kw: run(term, fuel, **kw),
    dir=lambda s: "down",
    invariants=check_invariants,
)
