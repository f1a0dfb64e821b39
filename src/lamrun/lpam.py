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
from .syntax import ARG, BODY, FUN, DEFAULT_FUEL, App, Lam, TermIndex, as_index, path_str


class UndefinedLookup(Exception):
    pass


class History:
    """Persistent append-only history; cells shared between versions.

    ``array`` holds the entries oldest first, and a version sees its first
    ``len(self)``.  The versions that extend one another share it, so a run
    appends in place and looks up in O(1); extending an older version copies
    the part it sees.
    """

    __slots__ = ("cells", "array")

    def __init__(self, cells: Optional[tk.Cell] = None, array: Optional[list] = None):
        self.cells = cells  # newest first
        self.array = list(reversed(tk.to_list(cells))) if array is None else array

    def __len__(self) -> int:
        return 0 if self.cells is None else self.cells.length

    def append(self, pos, idx) -> "History":
        n = len(self)
        array = self.array if len(self.array) == n else self.array[:n]
        array.append((pos, idx))
        return History(tk.cons((pos, idx), self.cells), array)

    def entry(self, k: int):
        """1-based; entry 1 is the oldest."""
        if 0 < k <= len(self):
            return self.array[k - 1]
        raise UndefinedLookup(f"history entry {k} of {len(self)}")

    def entries(self) -> list:
        """Oldest first."""
        return self.array[:len(self)]


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


def snapshot(index: TermIndex, s: PamState, enc: Optional[tk.Encoder] = None) -> str:
    enc = tk.Encoder() if enc is None else enc
    return (f'{{"history": {enc.list(s.history.entries(), ENTRY)}, "index": {s.index}, '
            f'"tape": {enc.list(s.tape, POSITION)}}}')


def state_footprint(s: PamState, reach: Optional[tk.Reach] = None) -> tk.SpaceFootprint:
    markers = tk.markers(s.tape)
    positions = tk.length(s.tape) - markers
    return tk.SpaceFootprint(positions + len(s.history), markers,
                             tk.deep_cells(s.history.cells, s.tape, reach=reach))


def check_invariants(index: TermIndex, s: PamState, per_label: dict, ctx: dict):
    entries = ctx.setdefault("entries", [])  # history entries, oldest first; append-only cache
    new = len(s.history) - len(entries)
    entries.extend(s.history.array[len(entries):len(s.history)])

    def depth_ok(i: int, m: int) -> bool:
        k = i
        for _ in range(m):
            if k <= 0:
                return False
            k = entries[k - 1][1]
        return True

    n = index.level_at[s.pos]
    assert depth_ok(s.index, n), "history depth is below the context level"
    for k in range(len(entries) - new + 1, len(entries) + 1):
        pos, j = entries[k - 1]
        assert j < k, "history entry index does not point strictly below it"
        m = index.level_at[pos]
        assert depth_ok(k - 1, m), (
            "history depth below an indexed position is smaller than its level"
        )
    positions = tk.length(s.tape) - tk.markers(s.tape)
    if s.dir == DOWN:
        assert s.index == len(s.history), "down state index differs from history length"
        assert positions == 0, "down state with positions on the tape"
    else:
        assert positions == 1, "up state without exactly one position on the tape"


def run(term_or_index, fuel: int = DEFAULT_FUEL, trace: bool = False, debug: bool = False,
        allow_fuel: bool = False):
    return reporting.run(MACHINE, as_index(term_or_index), fuel, trace, debug, allow_fuel)


def trajectory(index: TermIndex, fuel: int = DEFAULT_FUEL):
    return reporting.trajectory(MACHINE, index, fuel)


MACHINE = Machine(
    "pam", initial, lambda: step, snapshot, state_footprint,
    launch=lambda term, fuel, **kw: run(term, fuel, **kw),
    up_labels=UP_LABELS,
    invariants=check_invariants,
)
