"""Krivine abstract machine with explicit positions.

Environments are de Bruijn-indexed persistent lists of closures (entry 0 is
the innermost binder), so capturing an environment in a closure is a pointer
copy and the name search of textbook presentations becomes positional lookup.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import reporting, tokens as tk
from .reporting import FINAL, Machine, Next, Stuck
from .syntax import ARG, BODY, FUN, DEFAULT_FUEL, App, Lam, Term, TermIndex, Var, path_str


@tk.encodes('{"pos": %s, "env": %s}', lambda c: (path_str(c.pos),))
@tk.nests("env")
@dataclass(frozen=True, eq=False)
class Closure:
    pos: tuple
    env: Optional[tk.Cell]  # list of Closure


@dataclass(frozen=True, eq=False)
class KamState:
    pos: tuple
    env: Optional[tk.Cell]
    stack: Optional[tk.Cell]


def initial(index: TermIndex) -> KamState:
    return KamState((), tk.nil, tk.nil)


def step(index: TermIndex, s: KamState):
    node = index.node_at[s.pos]
    if isinstance(node, App):
        clo = Closure(s.pos + (ARG,), s.env)
        return Next("app", KamState(s.pos + (FUN,), s.env, tk.cons(clo, s.stack)))
    if isinstance(node, Lam):
        if s.stack is None:
            return FINAL
        return Next("abs", KamState(s.pos + (BODY,), tk.cons(s.stack.head, s.env), s.stack.tail))
    if tk.length(s.env) <= node.index:
        return Stuck("environment does not close the focused variable")
    clo = tk.nth(s.env, node.index)
    return Next("var", KamState(clo.pos, clo.env, s.stack), cost=node.index + 1)


def snapshot(index: TermIndex, s: KamState, enc: tk.Encoder) -> str:
    return f'{{"env": {enc.list(s.env)}, "stack": {enc.list(s.stack)}}}'


def state_footprint(s: KamState, reach: tk.Reach) -> tuple:
    # top-level entries of both structures; closures have no markers
    return tk.length(s.env) + tk.length(s.stack), 0, reach.update(s.env, s.stack)


def _max_free(index: TermIndex) -> dict:
    """The largest free de Bruijn index under each position (negative when
    the subterm is closed), children first: ``node_at`` lists parents first."""
    out: dict = {}
    for pos in reversed(index.node_at):
        node = index.node_at[pos]
        if isinstance(node, Var):
            out[pos] = node.index
        elif isinstance(node, Lam):
            out[pos] = out[pos + (BODY,)] - 1
        else:
            out[pos] = max(out[pos + (FUN,)], out[pos + (ARG,)])
    return out


def check_invariants(index: TermIndex, label, s: KamState, per_label: dict, ctx: dict):
    if not ctx:
        ctx.update(verified=set(), max_free=_max_free(index))
    verified, max_free = ctx["verified"], ctx["max_free"]
    assert tk.length(s.env) > max_free[s.pos], "state environment does not close the focus"
    for c in tk.new_items(verified, s.stack, s.env):
        assert tk.length(c.env) > max_free[c.pos], "closure environment does not close its subterm"


def run(term: Term, fuel: int = DEFAULT_FUEL, trace: bool = False, allow_fuel: bool = False):
    report = reporting.run(MACHINE, TermIndex(term), fuel, trace, allow_fuel)
    report.beta_count = report.per_label.get("abs", 0)
    return report


MACHINE = Machine(
    "kam", initial, lambda: step, snapshot, state_footprint,
    launch=lambda term, fuel, **kw: run(term, fuel, **kw),
    dir=lambda s: "down",
    invariants=check_invariants,
)
