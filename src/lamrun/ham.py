"""Hopping abstract machine: the jumping machine and the Krivine machine entangled.

Every marker of the jumping machine is upgraded to a logged closure (argument
position + environment + log) and every logged position to a closed position
(position + log + environment), so a single state carries both machines' data.
The variable transition is resolved by a run-wide mode: J queries the argument
through an up phase, K hops straight to it through the environment.  Mixed
modes are rejected; no theorem covers them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import reporting, tokens as tk
from .liam import DOWN, UP
from .ljam import UP_LABELS
from .reporting import FINAL, Machine, NodeState, Stuck
from .syntax import BODY, FUN, DEFAULT_FUEL, App, Lam, Node, Term, TermIndex, path_str

J_MODE = "j"
K_MODE = "k"


@tk.item('{"kind": "lc", "pos": %s, "env": %s, "log": %s}', lambda x: (path_str(x.node.path),),
         "env", "log")
@dataclass(slots=True, eq=False)
class LoggedClosure:
    node: Node  # an argument
    env: Optional[tk.Cell]  # list of LoggedClosure
    log: Optional[tk.Cell]  # list of ClosedPosition


@tk.item('{"kind": "cp", "pos": %s, "log": %s, "env": %s}', lambda x: (path_str(x.node.path),),
         "log", "env")
@dataclass(slots=True, eq=False)
class ClosedPosition:
    node: Node  # a variable occurrence
    log: Optional[tk.Cell]
    env: Optional[tk.Cell]


@dataclass(slots=True, eq=False)
class HamState(NodeState):
    node: Node
    log: Optional[tk.Cell]
    env: Optional[tk.Cell]
    tape: Optional[tk.Cell]  # LoggedClosure / ClosedPosition items
    dir: str


def initial(index: TermIndex) -> HamState:
    return HamState(index.top, tk.nil, tk.nil, tk.nil, DOWN)


def step_mode(index: TermIndex, s: HamState, mode: str):
    n = s.node
    if s.dir == DOWN:
        t = n.term
        if isinstance(t, App):
            lc = LoggedClosure(n.arg, s.env, s.log)
            return ("p1_app", HamState(n.fun, s.log, s.env, tk.cons(lc, s.tape), DOWN), 1)
        if isinstance(t, Lam):
            if s.tape is None:
                return FINAL
            item = s.tape.head
            if isinstance(item, LoggedClosure):
                return ("p2_abs", HamState(n.body, s.log, tk.cons(item, s.env),
                                           s.tape.tail, DOWN), 1)
            return Stuck("down state with a closed position on the tape")
        i = t.index
        if tk.length(s.env) <= i:
            return Stuck("environment does not close the focused variable")
        cp = ClosedPosition(n, s.log, s.env)
        if mode == J_MODE:
            return (
                "var_j",
                HamState(n.binder, tk.drop(s.log, n.inner), tk.drop(s.env, i + 1),
                         tk.cons(cp, s.tape), UP),
                n.inner,
            )
        lc = tk.nth(s.env, i)
        return ("var_k", HamState(lc.node, tk.cons(cp, lc.log), lc.env, s.tape, DOWN), i + 1)
    side, parent = n.side, n.parent
    if side is None:
        return Stuck("up state at the root of a closed term")
    if side == FUN:
        if s.tape is None:
            return Stuck("up state in function position with empty tape")
        item = s.tape.head
        if isinstance(item, LoggedClosure):
            return ("p3", HamState(parent, s.log, s.env, s.tape.tail, UP), 1)
        return ("arg", HamState(parent.arg, tk.cons(item, s.log), s.env, s.tape.tail, DOWN), 1)
    if side == BODY:
        if s.env is None:
            return Stuck("up state leaving a body with an empty environment")
        return ("p4", HamState(parent, s.log, s.env.tail, tk.cons(s.env.head, s.tape), UP), 1)
    if s.log is None:
        return Stuck("up state in argument position with empty log")
    cp = s.log.head
    return ("jmp", HamState(cp.node, cp.log, cp.env, s.tape, UP), 1)


def make_snapshot(mode: str):
    def snapshot(index: TermIndex, s: HamState, enc: tk.Encoder) -> str:
        return (f'{{"mode": {tk.json_text(mode)}, "log": {enc.list(s.log)}, '
                f'"env": {enc.list(s.env)}, "tape": {enc.list(s.tape)}}}')

    return snapshot


def state_footprint(s: HamState, reach: tk.Reach) -> tuple:
    return tk.length(s.log) + tk.length(s.tape), 0, reach.update(s.log, s.env, s.tape)


def check_invariants(index: TermIndex, label, s: HamState, per_label: dict, ctx: dict):
    visited = ctx.setdefault("visited", set())
    verified = ctx.setdefault("verified", set())
    visited.add(_shape_key(s.node, s.log, s.env))
    assert tk.length(s.log) == s.node.level, "log length differs from context level"
    cps = closed_count(s.tape, ctx.setdefault("closed", {}))
    if s.dir == DOWN:
        assert cps == 0, "down state with closed positions on the tape"
    else:
        assert cps == 1, "up state without exactly one closed position on the tape"

    # each logged closure and closed position records a state the run visited
    for x in tk.new_items(verified, s.tape, s.log, s.env):
        if isinstance(x, LoggedClosure):
            assert x.node.level == tk.length(x.log) + 1
            assert _shape_key(x.node.parent.fun, x.log, x.env) in visited, (
                "logged closure does not record a visited state"
            )
        else:
            assert x.node.level == tk.length(x.log)
            assert _shape_key(x.node, x.log, x.env) in visited, (
                "closed position does not record a visited state"
            )


def closed_count(tape, memo: dict) -> int:
    """How many items of ``tape`` are closed positions.  ``memo`` keeps each seen
    cell's count, its tail's plus its head's, so only new cells are walked."""
    chain = []
    while tape is not None and tape not in memo:
        chain.append(tape)
        tape = tape.tail
    count = memo.get(tape, 0)
    for cell in reversed(chain):
        count += isinstance(cell.head, ClosedPosition)
        memo[cell] = count
    return count


def _shape_key(node, log, env):
    return (node, tk.length(log), tk.length(env))


def run(term: Term, mode: str, fuel: int = DEFAULT_FUEL, sink: Optional[Callable] = None):
    if mode not in MODES:
        raise ValueError(f"mode must be {J_MODE!r} or {K_MODE!r}")
    return reporting.run(MODES[mode], TermIndex(term), fuel, sink)


def _machine(mode: str, up_labels: tuple) -> Machine:
    return Machine(
        f"ham-{mode}", initial, lambda: lambda index, s: step_mode(index, s, mode),
        make_snapshot(mode), state_footprint,
        launch=lambda term, fuel, **kw: run(term, mode, fuel, **kw),
        var_labels=("var_j", "var_k"),
        up_labels=up_labels,
        invariants=check_invariants,
    )


MODES = {J_MODE: _machine(J_MODE, UP_LABELS), K_MODE: _machine(K_MODE, ())}
