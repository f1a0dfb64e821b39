"""Pointer abstract machine: jumping via a monolithic history of indexed positions.

The history is an append-only sequence of (variable position, index) pairs,
1-based, oldest first; an entry's index always points strictly below it.  The
lookup chain ``phi`` recovers, one hop per enclosing argument, what the
jumping machine keeps in its distributed logs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import reporting, tokens as tk
from .liam import DOWN, UP
from .ljam import UP_LABELS
from .reporting import FINAL, Machine, Next, Stuck
from .syntax import ARG, BODY, FUN, DEFAULT_FUEL, App, Lam, Term, TermIndex, path_str


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

    def append(self, pos, idx) -> "History":
        n = self.length
        array = self.array if len(self.array) == n else self.array[:n]
        array.append((pos, idx))
        return History(array, n + 1)

    def entry(self, k: int):
        """1-based; entry 1 is the oldest."""
        if 0 < k <= self.length:
            return self.array[k - 1]
        raise UndefinedLookup(f"history entry {k} of {self.length}")

    def entries(self) -> list:
        """Oldest first."""
        return self.array[:self.length]


def phi(h: History, k: int) -> int:
    if k < 1:
        raise UndefinedLookup("phi is undefined on 0")
    return h.entry(k)[1]


def phi_pow(h: History, i: int, n: int) -> int:
    """n-fold lookup chain; cost n.  Raises UndefinedLookup on a broken chain."""
    k = i
    for _ in range(n):
        k = phi(h, k)
    return k


@dataclass(frozen=True, eq=False)
class PamState:
    pos: tuple
    history: History
    index: int
    tape: Optional[tk.Cell]  # markers and plain positions (paths)
    dir: str


def initial(index: TermIndex) -> PamState:
    return PamState((), History(), 0, tk.nil, DOWN)


def step(index: TermIndex, s: PamState):
    if s.dir == DOWN:
        node = index.node_at[s.pos]
        if isinstance(node, App):
            return Next("p1", PamState(s.pos + (FUN,), s.history, s.index,
                                       tk.cons(tk.MARKER, s.tape), DOWN))
        if isinstance(node, Lam):
            if s.tape is None:
                return FINAL
            if isinstance(s.tape.head, tk.Marker):
                return Next("p2", PamState(s.pos + (BODY,), s.history, s.index,
                                           s.tape.tail, DOWN))
            return Stuck("down state with a position on the tape")
        binder, inner = index.binder_at[s.pos]
        new_index = phi_pow(s.history, s.index, inner)
        return Next(
            "var",
            PamState(binder, s.history, new_index, tk.cons(s.pos, s.tape), UP),
            cost=inner,
        )
    if not s.pos:
        return Stuck("up state at the root of a closed term")
    parent = s.pos[:-1]
    last = s.pos[-1]
    if last == FUN:
        if s.tape is None:
            return Stuck("up state in function position with empty tape")
        item = s.tape.head
        if isinstance(item, tk.Marker):
            return Next("p3", PamState(parent, s.history, s.index, s.tape.tail, UP))
        new_hist = s.history.append(item, s.index)
        return Next("arg", PamState(parent + (ARG,), new_hist, len(s.history) + 1,
                                    s.tape.tail, DOWN))
    if last == BODY:
        return Next("p4", PamState(parent, s.history, s.index, tk.cons(tk.MARKER, s.tape), UP))
    pos, _ = s.history.entry(s.index)
    return Next("jmp", PamState(pos, s.history, s.index - 1, s.tape, UP))


# text forms of the plain tuples a PAM token holds; a tape position (a path)
# never equals a history entry (a path and an int), so one memo holds both
POSITION = tk.encodes('{"pos": %s}', lambda pos: (path_str(pos),))("pam position")
ENTRY = tk.encodes('{"pos": %s, "idx": %s}', lambda e: (path_str(e[0]), e[1]))("pam entry")


def snapshot(index: TermIndex, s: PamState, enc: tk.Encoder) -> str:
    return (f'{{"history": {enc.list(s.history.entries(), ENTRY)}, "index": {s.index}, '
            f'"tape": {enc.list(s.tape, POSITION)}}}')


def state_footprint(s: PamState, reach: tk.Reach) -> tuple:
    # history entries and tape items are plain tuples: no list nests in another
    markers = tk.markers(s.tape)
    tape = tk.length(s.tape)
    return len(s.history) + tape - markers, markers, len(s.history) + tape


def check_invariants(index: TermIndex, label, s: PamState, per_label: dict, ctx: dict):
    hops = ctx.setdefault("hops", [0])  # hops[k]: lookups the chain from index k can make
    array = s.history.array
    for k in range(len(hops), len(s.history) + 1):
        pos, j = array[k - 1]
        assert 0 <= j < k, "history entry index does not point strictly below it"
        hops.append(1 + hops[j])
        assert hops[k - 1] >= index.level_at[pos], (
            "history depth below an indexed position is smaller than its level"
        )
    assert 0 <= s.index < len(hops) and hops[s.index] >= index.level_at[s.pos], (
        "history depth is below the context level")
    positions = tk.length(s.tape) - tk.markers(s.tape)
    if s.dir == DOWN:
        assert s.index == len(s.history), "down state index differs from history length"
        assert positions == 0, "down state with positions on the tape"
    else:
        assert positions == 1, "up state without exactly one position on the tape"


def run(term: Term, fuel: int = DEFAULT_FUEL, trace: bool = False, allow_fuel: bool = False):
    return reporting.run(MACHINE, TermIndex(term), fuel, trace, allow_fuel)


MACHINE = Machine(
    "pam", initial, lambda: step, snapshot, state_footprint,
    launch=lambda term, fuel, **kw: run(term, fuel, **kw),
    up_labels=UP_LABELS,
    invariants=check_invariants,
)
