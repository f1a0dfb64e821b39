"""Pointer abstract machine: jumping via a monolithic history of indexed positions.

The history is an append-only sequence of (variable position, index) pairs,
1-based, oldest first; an entry's index always points strictly below it.  The
lookup chain ``phi_pow`` recovers, one hop per enclosing argument, what the
jumping machine keeps in its distributed logs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import reporting, tokens as tk
from .liam import DOWN, UP
from .ljam import UP_LABELS
from .reporting import FINAL, Machine, NodeState, Stuck
from .syntax import BODY, FUN, DEFAULT_FUEL, App, Lam, Node, Term, TermIndex, path_str


class UndefinedLookup(Exception):
    pass


class History:
    """Persistent append-only history.

    ``array`` holds the entries oldest first, and a version sees its first
    ``length``.  The versions that extend one another share it, so a run
    appends in place and looks up in O(1); extending an older version copies
    the part it sees.
    """

    __slots__ = ("array", "length")

    def __init__(self, array: Optional[list] = None, length: int = 0):
        self.array = [] if array is None else array
        self.length = length

    def __len__(self) -> int:
        return self.length

    def append(self, node, idx) -> "History":
        n = self.length
        array = self.array if len(self.array) == n else self.array[:n]
        array.append((node, idx))
        return History(array, n + 1)

    def entry(self, k: int):
        """1-based; entry 1 is the oldest."""
        if 0 < k <= self.length:
            return self.array[k - 1]
        raise UndefinedLookup(f"history entry {k} of {self.length}")

    def entries(self) -> list:
        """Oldest first."""
        return self.array[:self.length]


def phi_pow(h: History, i: int, n: int) -> int:
    """n-fold lookup chain from index ``i``, within the ``length`` entries ``h``
    sees; cost n.  Raises UndefinedLookup on a broken chain."""
    array, length, k = h.array, h.length, i
    for _ in range(n):
        if not 0 < k <= length:
            raise UndefinedLookup(f"history entry {k} of {length}")
        k = array[k - 1][1]
    return k


@dataclass(slots=True, eq=False)
class PamState(NodeState):
    node: Node
    history: History
    index: int
    tape: Optional[tk.Cell]  # markers and plain positions (nodes)
    dir: str


def initial(index: TermIndex) -> PamState:
    return PamState(index.top, History(), 0, tk.nil, DOWN)


def step(index: TermIndex, s: PamState):
    n = s.node
    if s.dir == DOWN:
        t = n.term
        if isinstance(t, App):
            return ("p1", PamState(n.fun, s.history, s.index,
                                   tk.cons(tk.MARKER, s.tape), DOWN), 1)
        if isinstance(t, Lam):
            if s.tape is None:
                return FINAL
            if isinstance(s.tape.head, tk.Marker):
                return ("p2", PamState(n.body, s.history, s.index, s.tape.tail, DOWN), 1)
            return Stuck("down state with a position on the tape")
        new_index = phi_pow(s.history, s.index, n.inner)
        return ("var", PamState(n.binder, s.history, new_index, tk.cons(n, s.tape), UP), n.inner)
    side, parent = n.side, n.parent
    if side is None:
        return Stuck("up state at the root of a closed term")
    if side == FUN:
        if s.tape is None:
            return Stuck("up state in function position with empty tape")
        item = s.tape.head
        if isinstance(item, tk.Marker):
            return ("p3", PamState(parent, s.history, s.index, s.tape.tail, UP), 1)
        new_hist = s.history.append(item, s.index)
        return ("arg", PamState(parent.arg, new_hist, len(s.history) + 1, s.tape.tail, DOWN), 1)
    if side == BODY:
        return ("p4", PamState(parent, s.history, s.index, tk.cons(tk.MARKER, s.tape), UP), 1)
    node, _ = s.history.entry(s.index)
    return ("jmp", PamState(node, s.history, s.index - 1, s.tape, UP), 1)


# the plain items a PAM token holds: tape positions are nodes, and history
# entries are (node, index) tuples; only PAM histories put tuples in a token list
tk.item('{"pos": %s}', lambda n: (path_str(n.path),))(Node)
tk.item('{"pos": %s, "idx": %s}', lambda e: (path_str(e[0].path), e[1]))(tuple)


def snapshot(index: TermIndex, s: PamState, enc: tk.Encoder) -> str:
    return (f'{{"history": {enc.list(s.history.entries())}, "index": {s.index}, '
            f'"tape": {enc.list(s.tape)}}}')


def state_footprint(s: PamState, reach: tk.Reach) -> tuple:
    # history entries and tape items are plain: no list nests in another
    markers = tk.markers(s.tape)
    tape = tk.length(s.tape)
    return len(s.history) + tape - markers, markers, len(s.history) + tape


def check_invariants(index: TermIndex, label, s: PamState, per_label: dict, ctx: dict):
    hops = ctx.setdefault("hops", [0])  # hops[k]: lookups the chain from index k can make
    array = s.history.array
    for k in range(len(hops), len(s.history) + 1):
        var, j = array[k - 1]
        assert 0 <= j < k, "history entry index does not point strictly below it"
        hops.append(1 + hops[j])
        assert hops[k - 1] >= var.level, (
            "history depth below an indexed position is smaller than its level"
        )
    assert 0 <= s.index < len(hops) and hops[s.index] >= s.node.level, (
        "history depth is below the context level")
    positions = tk.length(s.tape) - tk.markers(s.tape)
    if s.dir == DOWN:
        assert s.index == len(s.history), "down state index differs from history length"
        assert positions == 0, "down state with positions on the tape"
    else:
        assert positions == 1, "up state without exactly one position on the tape"


def run(term: Term, fuel: int = DEFAULT_FUEL, sink: Optional[Callable] = None):
    return reporting.run(MACHINE, TermIndex(term), fuel, sink)


MACHINE = Machine(
    "pam", initial, lambda: step, snapshot, state_footprint,
    launch=lambda term, fuel, **kw: run(term, fuel, **kw),
    up_labels=UP_LABELS,
    invariants=check_invariants,
)
