"""Jumping abstract machine: the interaction machine with jumps instead of backtracking.

Logged positions are global here: a variable occurrence and the whole log that
reached it, shared (extending a log never copies it, so saving one is a pointer
copy).  A jump restores position and log from the head log entry in a
single transition, replacing an entire backtracking phase.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import reporting, tokens as tk
from .liam import DOWN, UP
from .reporting import FINAL, LOGGED_POSITION, Machine, NodeState, Stuck
from .syntax import BODY, FUN, DEFAULT_FUEL, App, Lam, Node, Term, TermIndex, path_str

UP_LABELS = ("p3", "p4", "arg", "jmp")


@tk.item(LOGGED_POSITION, lambda lp: (path_str(lp.var.path), "", "global"), "log")
@dataclass(slots=True, eq=False)
class LoggedPosition:
    var: Node
    log: Optional[tk.Cell]  # all ``var.level`` entries


@dataclass(slots=True, eq=False)
class JamState(NodeState):
    node: Node
    tape: Optional[tk.Cell]
    log: Optional[tk.Cell]
    dir: str


def initial(index: TermIndex) -> JamState:
    return JamState(index.top, tk.nil, tk.nil, DOWN)


def step(index: TermIndex, s: JamState):
    n = s.node
    if s.dir == DOWN:
        t = n.term
        if isinstance(t, App):
            return ("p1", JamState(n.fun, tk.cons(tk.MARKER, s.tape), s.log, DOWN), 1)
        if isinstance(t, Lam):
            if s.tape is None:
                return FINAL
            if isinstance(s.tape.head, tk.Marker):
                return ("p2", JamState(n.body, s.tape.tail, s.log, DOWN), 1)
            return Stuck("down state with a logged position on the tape")
        lp = LoggedPosition(n, s.log)  # shares the whole log
        state = JamState(n.binder, tk.cons(lp, s.tape), tk.drop(s.log, n.inner), UP)
        return ("var", state, n.inner)
    side, parent = n.side, n.parent
    if side is None:
        return Stuck("up state at the root of a closed term")
    if side == FUN:
        if s.tape is None:
            return Stuck("up state in function position with empty tape")
        item = s.tape.head
        if isinstance(item, tk.Marker):
            return ("p3", JamState(parent, s.tape.tail, s.log, UP), 1)
        return ("arg", JamState(parent.arg, s.tape.tail, tk.cons(item, s.log), DOWN), 1)
    if side == BODY:
        return ("p4", JamState(parent, tk.cons(tk.MARKER, s.tape), s.log, UP), 1)
    if s.log is None:
        return Stuck("up state in argument position with empty log")
    p = s.log.head
    return ("jmp", JamState(p.var, s.tape, p.log, UP), 1)


def depth_of(item, memo: Optional[dict] = None) -> int:
    """Depth of a tape, log, or logged position: nesting of the head entry.

    ``memo`` caches the depths of cells and logged positions: logs nest
    deeply but are DAGs.
    """
    memo = {} if memo is None else memo
    chain = []  # cells and logged positions, each as deep as the next one or one deeper
    while item is not None and item not in memo:
        chain.append(item)
        if isinstance(item, tk.Cell):
            item = item.tail if isinstance(item.head, tk.Marker) else item.head
        else:
            item = item.log
    depth = 0 if item is None else memo[item]
    for x in reversed(chain):
        depth += not isinstance(x, tk.Cell)
        memo[x] = depth
    return depth


def depth(s: JamState, memo: Optional[dict] = None) -> int:
    return depth_of(s.tape if s.dir == UP else s.log, memo)


def snapshot(index: TermIndex, s: JamState, enc: tk.Encoder) -> str:
    return f'{{"tape": {enc.list(s.tape)}, "log": {enc.list(s.log)}}}'


def state_footprint(s: JamState, reach: tk.Reach) -> tuple:
    # a logged position shares the whole log: ``reach`` counts each cell once
    markers = tk.markers(s.tape)
    return tk.length(s.log) + tk.length(s.tape) - markers, markers, reach.update(s.log, s.tape)


def check_invariants(index: TermIndex, label, s: JamState, per_label: dict, ctx: dict):
    """Position-and-log and tape invariants, the depth of the state and of
    every logged position, and the length of each up phase: at most the depth
    of the state that starts it times the size of the term."""
    verified = ctx.setdefault("verified", set())
    depths = ctx.setdefault("depths", {})
    assert tk.length(s.log) == s.node.level, "log length differs from context level"
    lp_on_tape = tk.length(s.tape) - tk.markers(s.tape)
    if s.dir == DOWN:
        assert lp_on_tape == 0, "down state with logged positions on the tape"
    else:
        assert lp_on_tape == 1, "up state without exactly one logged position on the tape"
    d = depth(s, depths)
    assert d == per_label.get("var", 0), "state depth differs from the var-transition count"
    for lp in tk.new_items(verified, s.tape, s.log):
        assert type(lp) is LoggedPosition, "jumping machine carries another machine's item"
        assert tk.length(lp.log) == lp.var.level, (
            "global logged position stores a log shorter than its level")
        # d is the var count, which only grows: an item no deeper than d when first seen stays so
        assert d >= depth_of(lp, depths), "logged position deeper than its state"
    phase = ctx.get("phase")  # [transitions, bound] while the previous state is up
    if phase is not None:
        phase[0] += 1
        assert phase[0] <= phase[1], "up phase exceeds depth * size bound"
    ctx["phase"] = (phase or [0, d * index.size]) if s.dir == UP else None


def run(term: Term, fuel: int = DEFAULT_FUEL, sink: Optional[Callable] = None):
    return reporting.run(MACHINE, TermIndex(term), fuel, sink)


MACHINE = Machine(
    "jam", initial, lambda: step, snapshot, state_footprint,
    launch=lambda term, fuel, **kw: run(term, fuel, **kw),
    up_labels=UP_LABELS,
    invariants=check_invariants,
)
