"""Persistent token structures shared by the interaction machines.

Logs and tapes are cons lists: extending one never copies it, so captured
logs stay valid and sharing is observable (``Reach`` counts each cell
once).  Each cell knows, from when it is made, its list's length and marker
count, and nothing that grows with sharing.  A ``Reach`` follows the
distinct reachable cells of a run from state to state; a machine whose
token never shares a cell (the IAM) counts its cells as it steps, and needs
none.  The items are the machines' own: each item type registers once, with
``item``, the lists it holds and how it is written.  The IAM and the JAM
each define their logged positions, a variable occurrence and a log, the KAM
its closures and the HAM its logged closures and closed positions.
"""
from __future__ import annotations

import json
from itertools import zip_longest
from typing import Callable, Iterator, Optional


class Cell:
    """A list cell.  ``length`` and ``markers`` count the entries from this cell on."""

    __slots__ = ("head", "tail", "length", "markers")

    def __init__(self, head, tail: Optional["Cell"]):
        self.head = head
        self.tail = tail
        marker = 1 if type(head) is Marker else 0
        if tail is None:
            self.length = 1
            self.markers = marker
        else:
            self.length = tail.length + 1
            self.markers = tail.markers + marker

    def __repr__(self):
        return "List(" + ", ".join(map(repr, iterate(self))) + ")"


nil = None
cons = Cell


def length(xs: Optional[Cell]) -> int:
    return 0 if xs is None else xs.length


def markers(xs: Optional[Cell]) -> int:
    """How many entries of ``xs`` are markers."""
    return 0 if xs is None else xs.markers


def iterate(xs: Optional[Cell]) -> Iterator:
    cell = xs
    while cell is not None:
        yield cell.head
        cell = cell.tail


def take(xs: Optional[Cell], n: int) -> Optional[Cell]:
    if n == 0:
        return None
    items = []
    cell = xs
    for _ in range(n):
        if cell is None:
            raise IndexError("take past end of list")
        items.append(cell.head)
        cell = cell.tail
    return from_list(items)


def drop(xs: Optional[Cell], n: int) -> Optional[Cell]:
    cell = xs
    for _ in range(n):
        if cell is None:
            raise IndexError("drop past end of list")
        cell = cell.tail
    return cell


def concat(xs: Optional[Cell], ys: Optional[Cell]) -> Optional[Cell]:
    """``xs`` followed by ``ys``; copies the cells of ``xs`` and shares ``ys``."""
    return ys if xs is None else from_list(iterate(xs), ys)


def from_list(items, tail: Optional[Cell] = None) -> Optional[Cell]:
    """The list of ``items`` followed by ``tail``."""
    out = tail
    for item in reversed(list(items)):
        out = Cell(item, out)
    return out


def nth(xs: Optional[Cell], n: int):
    cell = drop(xs, n)
    if cell is None:
        raise IndexError("nth past end of list")
    return cell.head


# item type -> (shared template, unfolded template, fields, list attributes), for
# ``Encoder``: every item type; the shared template of a type that holds lists is
# its definition's, with the id first
TEXT_FORMS: dict = {}
# item type -> its attributes that hold lists, for ``Reach``, ``new_items`` and
# ``Encoder``: only the types that hold lists, so the hot paths skip the others
# at one lookup
NESTED_LISTS: dict = {}


def item(template: str, fields: Callable, *lists: str):
    """Class decorator registering a token item type: its instances hold token
    lists in the attributes ``lists`` and are written as ``template`` filled
    with the JSON texts of ``fields(item)``, then with those of ``lists``, in
    order.  In the shared form, an item that holds lists is written once per
    run, as a definition (see ``Encoder``), so its template must be a JSON
    object.  A type defined elsewhere registers as ``item(...)(cls)``."""

    def register(cls):
        shared = template
        if lists:
            assert template.startswith("{"), "an item that holds lists is a JSON object"
            shared = '{"def": %s, ' + template[1:]
            NESTED_LISTS[cls] = lists
        TEXT_FORMS[cls] = (shared, template, fields, lists)
        return cls

    return register


@item('"p"', lambda m: ())
class Marker:
    """The tape's marker.  There is one, ``MARKER``: ``Marker()`` returns it,
    and it compares and hashes by identity, so a dict lookup of a marker, as
    ``Encoder`` makes at every entry it writes, calls no Python code."""

    __slots__ = ()

    def __new__(cls):
        return MARKER

    def __repr__(self):
        return "p"


MARKER = object.__new__(Marker)


class Reach:
    """The cells reachable from some roots, kept up to date as the roots move.

    ``refs`` maps each reachable cell to its references: from the roots, from
    the cell whose tail it is, and from the items that hold it (see ``item``).
    Lists are immutable and acyclic, so a cell is reachable exactly while its
    count is positive, and moving the roots costs time in proportion to the
    cells that become reachable or unreachable.
    """

    __slots__ = ("refs", "roots")

    def __init__(self):
        self.refs: dict = {}
        self.roots: tuple = ()

    def update(self, *roots: Optional[Cell]) -> int:
        """Make ``roots`` the roots; returns how many cells they reach."""
        refs = self.refs
        nested = NESTED_LISTS.get
        grown, shrunk = [], []
        for new, old in zip_longest(roots, self.roots):
            if new is not old:
                if new is not None:
                    grown.append(new)
                if old is not None:
                    shrunk.append(old)
        self.roots = roots
        while grown:  # count the new references first: a moved cell stays
            cell = grown.pop()
            while cell is not None:
                count = refs.get(cell, 0)
                refs[cell] = count + 1
                if count:
                    break
                attrs = nested(type(cell.head))
                if attrs is not None:
                    for attr in attrs:
                        grown.append(getattr(cell.head, attr))
                cell = cell.tail
        while shrunk:
            cell = shrunk.pop()
            while cell is not None:
                count = refs[cell] - 1
                if count:
                    refs[cell] = count
                    break
                del refs[cell]
                attrs = nested(type(cell.head))
                if attrs is not None:
                    for attr in attrs:
                        shrunk.append(getattr(cell.head, attr))
                cell = cell.tail
        return len(refs)


def new_items(seen: set, *roots: Optional[Cell]) -> Iterator:
    """The items reachable from the lists ``roots`` through the lists they hold
    (see ``item``; items that hold none are skipped) that are not in
    ``seen``; each is added to ``seen`` as it is yielded.  The cells walked are
    added too, and a walk stops at a cell already seen: lists are immutable,
    so the rest of that list was walked then.  Consume the whole iterator."""
    pending = list(roots)
    while pending:
        cell = pending.pop()
        while cell is not None and cell not in seen:
            seen.add(cell)
            item = cell.head
            attrs = NESTED_LISTS.get(type(item))
            if attrs is not None and item not in seen:
                seen.add(item)
                yield item
                for attr in attrs:
                    pending.append(getattr(item, attr))
            cell = cell.tail


# ---------------------------------------------------------------------------
# Relating tokens
#
# Tokens are DAGs that nest as deep as the run is long: a naive structural
# walk unfolds their sharing exponentially and recurses once per level.


def related(pairs, rule, memo: dict) -> bool:
    """Whether every pair ``(a, b)`` of ``pairs`` is related.

    Two lists are related when each entry of ``a`` is related to the entry of
    ``b`` at the same place: ``b`` may be longer, so callers that need equal
    lengths compare them first.  Two items (anything but a list) are related
    when ``rule(a, b)`` returns pairs that are all related; it returns None
    when they are not.  A worklist replaces recursion, and ``memo`` keeps the
    pairs found related across calls, keyed by the objects themselves.
    """
    added = []  # taken back out of ``memo`` if some pair is not related
    pending = list(pairs)
    ok = True
    while ok and pending:
        a, b = pending.pop()
        if a is None or type(a) is Cell:  # two lists: pair their entries
            while a is not None and (a, b) not in memo:
                if type(b) is not Cell:
                    ok = False
                    break
                memo[a, b] = True
                added.append((a, b))
                pending.append((a.head, b.head))
                a, b = a.tail, b.tail
        elif (a, b) not in memo:
            memo[a, b] = True
            added.append((a, b))
            more = rule(a, b)
            if more is None:
                ok = False
            else:
                pending.extend(more)
    if not ok:
        for key in added:
            del memo[key]
    return ok


# ---------------------------------------------------------------------------
# Serialization (the stable trace interface)

json_text = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps(x, ensure_ascii=False)


class Encoder:
    """The JSON text of token items, in the shared form or the unfolded one.

    In the shared form, each item written once: an item whose type holds
    lists (``NESTED_LISTS``) is defined the first time a list refers to it.
    Its definition is the form ``item`` registered for its type, with
    ``"def": id`` first, and its lists refer to the items they hold in the
    same way.  Later, a list writes only the id, a JSON int.  Definitions
    queue in ``defs``, each item's children before itself, until
    ``take_defs`` hands them to the trace event that first refers to them.
    Markers and the other items that hold no list (PAM history entries, tape
    positions) are written inline, in full, wherever they occur.  So a trace
    grows with the items a run makes and the entries of the lists it writes,
    however the items share.  In the unfolded form (``unfolded=True``) every
    item is written in full wherever it occurs, as a tree, and ``defs`` is
    None: its text can be exponentially longer.  Either way ``memo`` keeps
    each item's text (its id, inline form or full text) by item, so each item
    is written once: eq=False classes, nodes and the one marker by identity,
    PAM history tuples by value.  A traced run makes one encoder, the run's id table.
    """

    __slots__ = ("memo", "defs", "ids")

    def __init__(self, unfolded: bool = False):
        self.memo: dict = {}
        self.defs: Optional[list] = None if unfolded else []  # not yet taken, children first
        self.ids = 0  # items defined so far; the next id

    def take_defs(self) -> tuple:
        """The definitions made since the last call, as JSON texts."""
        defs = self.defs
        if not defs:
            return ()
        self.defs = []
        return tuple(defs)

    def list(self, items) -> str:
        """The JSON text of a token list (a ``Cell`` or None) or of any
        iterable of items."""
        get = self.memo.get
        if items is not None and type(items) is not Cell:
            return "[" + ", ".join([get(x) or self.text(x) for x in items]) + "]"
        out = []
        cell = items
        while cell is not None:  # a list is walked at every event: no generator
            x = cell.head
            out.append(get(x) or self.text(x))
            cell = cell.tail
        return "[" + ", ".join(out) + "]"

    def text(self, item) -> str:
        """The JSON text of one item: in the shared form, its id if it holds lists."""
        memo = self.memo
        if item not in memo:
            self._fill(item)
        return memo[item]

    def _fill(self, item):
        """Write ``item`` and each item its lists hold that has no text yet,
        children first: an explicit stack, since tokens nest as deep as the
        run is long."""
        memo, forms, defs = self.memo, TEXT_FORMS, self.defs
        stack = [(item, False)]
        while stack:
            x, ready = stack.pop()
            if x in memo:
                continue
            shared, template, fields, attrs = forms[type(x)]
            if not attrs:
                memo[x] = template % tuple(map(json_text, fields(x)))
            elif not ready:  # its lists' items first, then itself
                stack.append((x, True))
                for attr in attrs:
                    stack.extend((y, False) for y in iterate(getattr(x, attr)) if y not in memo)
            elif defs is None:
                memo[x] = template % (*map(json_text, fields(x)),
                                      *[self.list(getattr(x, attr)) for attr in attrs])
            else:
                ident = memo[x] = str(self.ids)
                self.ids += 1
                defs.append(shared % (ident, *map(json_text, fields(x)),
                                      *[self.list(getattr(x, attr)) for attr in attrs]))
