"""Interaction abstract machine on lambda terms: a bi-deterministic token machine.

The token is a log (one logged position per enclosing argument) plus a tape of
markers and logged positions.  Down states query the head variable of the
focused subterm, up states query the argument of an abstraction.  Backtracking
(bt1 .. bt2) re-finds the variable occurrence a subterm was virtually
substituted for; it is flagged ``bt`` in snapshots for readability only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import reporting, tokens as tk
from .reporting import FINAL, Machine, Next, Stuck
from .syntax import ARG, BODY, FUN, DEFAULT_FUEL, App, Lam, Term, TermIndex, Var

DOWN = "down"
UP = "up"


@dataclass(frozen=True, eq=False)
class IamState:
    pos: tuple
    tape: Optional[tk.Cell]
    log: Optional[tk.Cell]
    dir: str


def initial(index: TermIndex) -> IamState:
    return IamState((), tk.nil, tk.nil, DOWN)


def step(index: TermIndex, s: IamState):
    if s.dir == DOWN:
        node = index.node_at[s.pos]
        if isinstance(node, App):
            return Next("p1", IamState(s.pos + (FUN,), tk.cons(tk.MARKER, s.tape), s.log, DOWN))
        if isinstance(node, Lam):
            if s.tape is None:
                return FINAL
            item = s.tape.head
            if isinstance(item, tk.Marker):
                return Next("p2", IamState(s.pos + (BODY,), s.tape.tail, s.log, DOWN))
            if item.scope_path == s.pos:
                return Next(
                    "bt2",
                    IamState(item.var_path, s.tape.tail, tk.concat(item.log, s.log), UP),
                )
            return Stuck("logged position on tape does not match the focused abstraction")
        binder, inner = index.binder_at[s.pos]
        lp = tk.LoggedPosition(s.pos, binder, tk.LOCAL, tk.take(s.log, inner))
        return Next(
            "var",
            IamState(binder, tk.cons(lp, s.tape), tk.drop(s.log, inner), UP),
            cost=inner,
        )
    # up phase
    if not s.pos:
        return Stuck("up state at the root of a closed term")
    parent = s.pos[:-1]
    last = s.pos[-1]
    if last == FUN:
        if s.tape is None:
            return Stuck("up state in function position with empty tape")
        item = s.tape.head
        if isinstance(item, tk.Marker):
            return Next("p3", IamState(parent, s.tape.tail, s.log, UP))
        return Next("arg", IamState(parent + (ARG,), s.tape.tail, tk.cons(item, s.log), DOWN))
    if last == BODY:
        return Next("p4", IamState(parent, tk.cons(tk.MARKER, s.tape), s.log, UP))
    # argument position: backtrack to the logged position on top of the log
    if s.log is None:
        return Stuck("up state in argument position with empty log")
    p = s.log.head
    return Next("bt1", IamState(parent + (FUN,), tk.cons(p, s.tape), s.log.tail, DOWN))


def step_back(index: TermIndex, s: IamState):
    """Inverse transition; defined exactly on non-initial reachable states."""
    if s.dir == DOWN:
        if not s.pos:
            return None  # initial state
        parent = s.pos[:-1]
        last = s.pos[-1]
        if last == FUN:
            if s.tape is None:
                return None
            item = s.tape.head
            if isinstance(item, tk.Marker):
                return "p1", IamState(parent, s.tape.tail, s.log, DOWN)
            return "bt1", IamState(parent + (ARG,), s.tape.tail, tk.cons(item, s.log), UP)
        if last == BODY:
            return "p2", IamState(parent, tk.cons(tk.MARKER, s.tape), s.log, DOWN)
        if s.log is None:
            return None
        return "arg", IamState(parent + (FUN,), tk.cons(s.log.head, s.tape), s.log.tail, UP)
    node = index.node_at[s.pos]
    if isinstance(node, Lam):
        if s.tape is None:
            return None
        item = s.tape.head
        if isinstance(item, tk.Marker):
            return "p4", IamState(s.pos + (BODY,), s.tape.tail, s.log, UP)
        if item.scope_path == s.pos:
            return "var", IamState(
                item.var_path, s.tape.tail, tk.concat(item.log, s.log), DOWN
            )
        return None
    if isinstance(node, Var):
        binder, inner = index.binder_at[s.pos]
        lp = tk.LoggedPosition(s.pos, binder, tk.LOCAL, tk.take(s.log, inner))
        return "bt2", IamState(binder, tk.cons(lp, s.tape), tk.drop(s.log, inner), DOWN)
    if isinstance(node, App):
        return "p3", IamState(s.pos + (FUN,), tk.cons(tk.MARKER, s.tape), s.log, UP)
    return None


def is_backtracking(s: IamState) -> bool:
    return s.dir == DOWN and s.tape is not None and not isinstance(s.tape.head, tk.Marker)


def snapshot(index: TermIndex, s: IamState, enc: tk.Encoder) -> str:
    bt = "true" if is_backtracking(s) else "false"
    return f'{{"tape": {enc.list(s.tape)}, "log": {enc.list(s.log)}, "bt": {bt}}}'


def state_footprint(s, reach: tk.Reach) -> tuple:  # of an IAM or a JAM state
    return tk.footprint(s.log, s.tape, reach)


def states_related(a, b, rule, memo: dict) -> bool:
    """Same position and direction, and tapes and logs of equal lengths whose
    items ``rule`` relates (see ``tokens.related``); for any states with a
    position, a direction, a tape and a log."""
    return (
        a.pos == b.pos
        and a.dir == b.dir
        and tk.length(a.tape) == tk.length(b.tape)
        and tk.length(a.log) == tk.length(b.log)
        and tk.related(((a.tape, b.tape), (a.log, b.log)), rule, memo)
    )


def state_eq(a, b, memo: dict) -> bool:
    """Equal positions, directions and tokens; for both token-passing machines' states."""
    return states_related(a, b, tk.same_item, memo)


def check_invariants(index: TermIndex, label, s: IamState, per_label: dict, ctx: dict):
    """Position-and-log plus tape-and-direction invariants, those of every
    logged position the token holds, however deeply nested, and well-bracketed
    backtracking: each bt2 ends the innermost pending bt1."""
    verified = ctx.setdefault("verified", set())
    pending = ctx.setdefault("pending", [])  # tape heads pushed by the pending bt1s
    if label == "bt1":
        pending.append(s.tape.head)
    elif label == "bt2":
        assert pending and pending[-1] is ctx["prev"].tape.head, (
            "bt2 does not exhaust the innermost pending bt1")
        pending.pop()
    ctx["prev"] = s
    assert tk.length(s.log) == index.level_at[s.pos], "log length differs from context level"
    lp_on_tape = tk.length(s.tape) - tk.markers(s.tape)
    expected = DOWN if lp_on_tape % 2 == 0 else UP
    assert s.dir == expected, "direction does not match tape parity"
    for lp in tk.new_items(verified, s.tape, s.log):  # immutable: one check per object
        assert lp.flavor == tk.LOCAL, "interaction machine carries local logged positions"
        binder, inner = index.binder_at[lp.var_path]
        assert binder == lp.scope_path, "logged position scope is not the binder"
        assert tk.length(lp.log) == inner, (
            "logged position log length differs from its inner level")


def run(term: Term, fuel: int = DEFAULT_FUEL, trace: bool = False, allow_fuel: bool = False):
    return reporting.run(MACHINE, TermIndex(term), fuel, trace, allow_fuel)


MACHINE = Machine(
    "iam", initial, lambda: step, snapshot, state_footprint,
    launch=lambda term, fuel, **kw: run(term, fuel, **kw),
    invariants=check_invariants,
)
