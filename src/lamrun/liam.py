"""Interaction abstract machine on lambda terms: a bi-deterministic token machine.

The token is a log (one logged position per enclosing argument) plus a tape of
markers and logged positions.  A logged position is local: a variable and the
first ``inner`` entries of its log, which starts at the variable's binder.
Down states query the head variable of the focused subterm, up states query
the argument of an abstraction.  Backtracking (bt1 .. bt2) re-finds the
variable occurrence a subterm was virtually substituted for; it is flagged
``bt`` in snapshots for readability only.

The token is a tree: no cell is reachable from it in two ways.  The initial
token has no cell, and each transition keeps that so.  ``p1`` and ``p4``
push a fresh marker, ``p2`` and ``p3`` pop one, ``arg`` moves the tape's head
to the log and ``bt1`` the log's head to the tape: each moves an entry, and
the cell it leaves is reachable no more.  ``var`` splits the log: the new
logged position holds a copy of the cells it keeps (``take``), and the rest
stays the log.  ``bt2`` pops that logged position and copies its log's
cells onto the log (``concat``).  So ``p1``, ``p4`` and ``var`` add one cell
to the token, ``p2``, ``p3`` and ``bt2`` take one, and ``arg`` and ``bt1``
none: a state carries its token's cell count, and its footprint needs no
``tokens.Reach``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import reporting, tokens as tk
from .reporting import DOWN, FLIP, LOGGED_POSITION, UP, Machine, NodeState, Stuck
from .syntax import BODY, FUN, DEFAULT_FUEL, App, Lam, Node, Term, TermIndex, path_str


@tk.item(LOGGED_POSITION,
         lambda lp: (path_str(lp.var.path), path_str(lp.var.binder.path), "local"), "log")
@dataclass(slots=True, eq=False)
class LoggedPosition:
    var: Node
    log: Optional[tk.Cell]  # the first ``var.inner`` entries


@dataclass(slots=True, eq=False)
class IamState(NodeState):
    node: Node
    tape: Optional[tk.Cell]
    log: Optional[tk.Cell]
    dir: str
    cells: int  # the token's cells, all distinct

    # the state with its direction flipped, for ``reporting.step_back``
    flip = lambda s: IamState(s.node, s.tape, s.log, FLIP[s.dir], s.cells)  # noqa: E731


def initial(index: TermIndex) -> IamState:
    return IamState(index.top, tk.nil, tk.nil, DOWN, 0)


def step(index: TermIndex, s: IamState):
    n = s.node
    if s.dir == DOWN:
        t = n.term
        if isinstance(t, App):
            return ("p1", IamState(n.fun, tk.cons(tk.MARKER, s.tape), s.log, DOWN, s.cells + 1), 1)
        if isinstance(t, Lam):
            if s.tape is None:
                return None
            item = s.tape.head
            if isinstance(item, tk.Marker):
                return ("p2", IamState(n.body, s.tape.tail, s.log, DOWN, s.cells - 1), 1)
            if item.var.binder is n:
                log = tk.concat(item.log, s.log)
                return ("bt2", IamState(item.var, s.tape.tail, log, UP, s.cells - 1), 1)
            raise Stuck("logged position on tape does not match the focused abstraction")
        lp = LoggedPosition(n, tk.take(s.log, n.inner))
        state = IamState(n.binder, tk.cons(lp, s.tape), tk.drop(s.log, n.inner), UP, s.cells + 1)
        return ("var", state, n.inner)
    # up phase
    side, parent = n.side, n.parent
    if side is None:
        raise Stuck("up state at the root of a closed term")
    if side == FUN:
        if s.tape is None:
            raise Stuck("up state in function position with empty tape")
        item = s.tape.head
        if isinstance(item, tk.Marker):
            return ("p3", IamState(parent, s.tape.tail, s.log, UP, s.cells - 1), 1)
        return ("arg", IamState(parent.arg, s.tape.tail, tk.cons(item, s.log), DOWN, s.cells), 1)
    if side == BODY:
        return ("p4", IamState(parent, tk.cons(tk.MARKER, s.tape), s.log, UP, s.cells + 1), 1)
    # argument position: backtrack to the logged position on top of the log
    if s.log is None:
        raise Stuck("up state in argument position with empty log")
    p = s.log.head
    return ("bt1", IamState(parent.fun, tk.cons(p, s.tape), s.log.tail, DOWN, s.cells), 1)


def is_backtracking(s: IamState) -> bool:
    return s.dir == DOWN and s.tape is not None and not isinstance(s.tape.head, tk.Marker)


def snapshot(s: IamState, enc: tk.Encoder) -> str:
    bt = "true" if is_backtracking(s) else "false"
    return f'{{"tape": {enc.list(s.tape)}, "log": {enc.list(s.log)}, "bt": {bt}}}'


def state_footprint(s: IamState, reach: tk.Reach) -> tuple:
    """``(lp, markers, cells)`` of the token in O(1): the entries are read off
    its lists' first cells and the cells off the state, since the token is a
    tree; ``reach`` goes unused."""
    log, tape = s.log, s.tape
    lp = 0 if log is None else log.length
    marker_count = 0
    if tape is not None:
        marker_count = tape.markers
        lp += tape.length - marker_count
    return lp, marker_count, s.cells


def states_related(a, b, rule, memo: dict) -> bool:
    """Same position and direction, and tapes and logs of equal lengths whose
    items ``rule`` relates (see ``tokens.related``); for any states with a
    position, a direction, a tape and a log."""
    return (
        a.node is b.node
        and a.dir == b.dir
        and tk.length(a.tape) == tk.length(b.tape)
        and tk.length(a.log) == tk.length(b.log)
        and tk.related(((a.tape, b.tape), (a.log, b.log)), rule, memo)
    )


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
    assert tk.length(s.log) == s.node.level, "log length differs from context level"
    lp_on_tape = tk.length(s.tape) - tk.markers(s.tape)
    expected = DOWN if lp_on_tape % 2 == 0 else UP
    assert s.dir == expected, "direction does not match tape parity"
    for lp in tk.new_items(verified, s.tape, s.log):  # immutable: one check per object
        assert type(lp) is LoggedPosition, "interaction machine carries another machine's item"
        assert tk.length(lp.log) == lp.var.inner, (
            "logged position log length differs from its inner level")


def run(term: Term, fuel: int = DEFAULT_FUEL, sink: Optional[Callable] = None):
    return reporting.run(MACHINE, TermIndex(term), fuel, sink)


MACHINE = Machine(
    "iam", initial, lambda: step, snapshot, state_footprint,
    launch=lambda term, fuel, **kw: run(term, fuel, **kw),
    invariants=check_invariants,
)
