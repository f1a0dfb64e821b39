import json
import os
import tracemalloc
from pathlib import Path

import pytest

import lamrun
from lamrun import harness, liam, ljam, tokens as tk
from lamrun.ham import ClosedPosition, LoggedClosure
from lamrun.kam import Closure
from lamrun.reporting import unfold
from lamrun.syntax import ARG, BODY, FUN, App, Lam, Var, parse, path_str, pretty

DEFS = {"I": "\\z.z"}
# the environment of a child ``python`` that imports this checkout's lamrun
SRC = Path(lamrun.__file__).resolve().parents[1]
CHILD_ENV = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
# the paper's families, small: t_1 … t_8 and r(k,h) for k, h ∈ {1, 3}
FAMILIES = ([harness.family_tn(n) for n in range(1, 9)]
            + [harness.family_rkh(k, h) for k in (1, 3) for h in (1, 3)])


def at(index, path):
    """The node of ``index`` at a root-relative path of FUN/ARG/BODY steps."""
    node = index.top
    for step in path:
        node = getattr(node, step.lower())
    return node


def resolve(root, path):
    """``(subterm, level)`` for the occurrence at ``path`` in the term ``root``."""
    t = root
    level = 0
    for step in path:
        if step == FUN and isinstance(t, App):
            t = t.fun
        elif step == ARG and isinstance(t, App):
            t = t.arg
            level += 1
        elif step == BODY and isinstance(t, Lam):
            t = t.body
        else:
            raise ValueError(f"step {step} does not match node at {path_str(path)}")
    return t, level


def replay(term, steps):
    """``(step, before, after)`` for each of ``steps``, the weak head reduction
    of ``term``: the whole terms a step reduces, rebuilt on an argument stack
    of this helper's own, innermost argument on top."""
    args: list = []
    head = term
    for step in steps:
        while isinstance(head, App):
            args.append(head.arg)
            head = head.fun
        arg = args.pop()
        assert step.depth == len(args) and step.arg is arg
        before = App(head, arg)
        after = step.head
        for a in reversed(args):
            before, after = App(before, a), App(after, a)
        yield step, before, after
        head = step.head


def identity_chain(depth: int) -> str:
    """``(λx.x) ((λx.x) (… (λz.z)))`` with ``depth`` applied identities."""
    return "(\\x.x) (" * depth + "\\z.z" + ")" * depth


def head_spine(n: int) -> str:
    """``(λx1.λx2.λy0…λy(n−1).x1) I … I``: a head spine of n + 2 identities."""
    return ("(\\x1.\\x2." + "".join(f"\\y{i}." for i in range(n)) + "x1)"
            + " (\\z.z)" * (n + 2))


def traced_peak(work, *args):
    """``work(*args)`` and the ``tracemalloc`` peak of what it allocates."""
    tracemalloc.start()
    try:
        return work(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def church_ii(n):
    """``c_n I I``: the Church numeral ``n`` applied to two identities."""
    return parse("(\\f.\\x." + "f (" * n + "x" + ")" * n + ") I I", DEFS)


def skeleton(term):
    """Name-erased shape, written out in prefix order with an explicit stack, so
    at any depth; equal skeletons mean alpha-equivalent terms."""
    out = []
    pending = [term]
    while pending:
        t = pending.pop()
        if isinstance(t, Var):
            out += ("v", t.index)
        elif isinstance(t, Lam):
            out.append("l")
            pending.append(t.body)
        else:
            out.append("a")
            pending += (t.arg, t.fun)
    return tuple(out)


def written(term):
    """The skeleton and the display text of ``term``: together they fix every
    field, so terms built apart are compared by these, not by identity."""
    return skeleton(term), pretty(term)


def canonical_pretty(term):
    """Collision-free printing: binders renamed by depth, written with a backslash."""
    def rename(t, depth):
        if isinstance(t, Var):
            return Var(t.index, f"v{depth - 1 - t.index}")
        if isinstance(t, Lam):
            return Lam(f"v{depth}", rename(t.body, depth + 1))
        return App(rename(t.fun, depth), rename(t.arg, depth))

    return pretty(rename(term, 0)).replace("λ", "\\")


def same_item(x, y):
    """The rule of equality for ``tokens.related``: tape items equal field by field."""
    if x is y:
        return ()
    if isinstance(x, tk.Marker) or isinstance(y, tk.Marker):
        return () if x == y else None
    if type(x) is type(y) and x.var is y.var and tk.length(x.log) == tk.length(y.log):
        return ((x.log, y.log),)
    return None


# item type -> attributes holding lists, written out apart from the lists
# each type registers with ``tokens.item``
HOLDS = {
    liam.LoggedPosition: ("log",),
    ljam.LoggedPosition: ("log",),
    Closure: ("env",),
    LoggedClosure: ("env", "log"),
    ClosedPosition: ("log", "env"),
}


def reachable(*roots) -> set:
    """The cells reachable from the lists ``roots``, walked anew."""
    seen = set()
    pending = list(roots)
    while pending:
        cell = pending.pop()
        while cell is not None and cell not in seen:
            seen.add(cell)
            pending.extend(getattr(cell.head, attr) for attr in HOLDS.get(type(cell.head), ()))
            cell = cell.tail
    return seen


def reference_cells(*roots) -> int:
    return len(reachable(*roots))


def unfolded(x, memo):
    """Items in the unfolding of ``x``, a list or an item: an item counts one
    plus the items of the lists it holds.  ``memo`` keeps the count of each
    list cell and item, so shared structure is counted without being walked
    again, and no text is written.  A list's count is also its number of
    cells written out as a tree."""
    stack = [x]
    while stack:
        y = stack[-1]
        if y is None or y in memo:
            stack.pop()
            continue
        if type(y) is tk.Cell:
            parts = (y.head, y.tail)
        else:
            parts = tuple(getattr(y, a) for a in HOLDS.get(type(y), ()))
        missing = [p for p in parts if p is not None and p not in memo]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        total = sum(memo[p] for p in parts if p is not None)
        memo[y] = total if type(y) is tk.Cell else 1 + total
    return 0 if x is None else memo[x]


ROOTS = {  # the lists a state's token is made of
    "iam": lambda s: (s.tape, s.log),
    "jam": lambda s: (s.tape, s.log),
    "pam": lambda s: (s.tape,),
    "kam": lambda s: (s.env, s.stack),
    "ham-j": lambda s: (s.log, s.env, s.tape),
    "ham-k": lambda s: (s.log, s.env, s.tape),
    "siam": lambda s: (),
}


def reference_refs(*roots) -> dict:
    """The references ``tokens.Reach`` keeps for ``roots``, counted from scratch:
    each reachable cell's, from the roots, from the reachable cell whose tail it
    is, and from the items at the heads of reachable cells."""
    refs: dict = {}
    held = [r for r in roots if r is not None]
    for cell in reachable(*roots):
        held.append(cell.tail)
        held.extend(getattr(cell.head, attr) for attr in HOLDS.get(type(cell.head), ()))
    for cell in held:
        if cell is not None:
            refs[cell] = refs.get(cell, 0) + 1
    return refs


def traced(run, *args, shared=False, **kwargs):
    """``run(*args, **kwargs)`` with a sink that collects its trace events;
    returns what ``run`` returns and the events, in order, with their tokens
    unfolded (``reporting.unfold``) unless ``shared``."""
    events: list = []
    sink = events.append if shared else unfold(events.append)
    return run(*args, sink=sink, **kwargs), events


class SharedReader:
    """Unfolded JSON texts from the shared form that ``tokens.Encoder`` writes,
    read back from parsed JSON: the tests' round-trip reference for that form.

    Each id stands for the full text of the item it names, with the items its
    lists hold unfolded in turn, as a tree.  ``memo`` keeps that text by id,
    so each item is unfolded once: a definition's lists name only items
    defined before it, so one pass over the definitions in order unfolds
    them with no recursion.  In a token's lists, and only there, an int is an id.
    """

    def __init__(self):
        self.memo: dict = {}

    def define(self, defs):
        """Take in the definitions ``defs`` (parsed JSON objects), in order."""
        for d in defs:
            fields = iter(d.items())
            _, ident = next(fields)  # "def" comes first
            self.memo[ident] = self._object(fields)

    def text(self, value) -> str:
        """The unfolded JSON text of ``value``, parsed from the shared form: a
        token (a JSON object whose lists are token lists), a list or an id."""
        if type(value) is int:
            return self.memo[value]
        if type(value) is list:
            return self._list(value)
        return self._object(value.items())

    def _object(self, fields) -> str:
        return "{" + ", ".join([tk.json_text(k) + ": " + (self._list(v) if type(v) is list
                                                          else tk.json_text(v))
                                for k, v in fields]) + "}"

    def _list(self, entries: list) -> str:
        return "[" + ", ".join([self.memo[x] if type(x) is int else tk.json_text(x)
                                for x in entries]) + "]"


def plain_text(write):
    """The unfolded text that ``write(enc)`` writes with a fresh
    ``tokens.Encoder``: its shared text read back through ``SharedReader``."""
    enc = tk.Encoder()
    text = write(enc)
    reader = SharedReader()
    reader.define(map(json.loads, enc.take_defs()))
    return reader.text(json.loads(text))


def token(ev):
    """The token of a trace event, parsed from its JSON text."""
    return json.loads(ev.token_json)


@pytest.fixture(scope="session")
def running_example():
    """(λy.λx.x y) I I with I = λz.z."""
    return parse("(\\y.\\x.x y) I I", DEFS)


@pytest.fixture(scope="session")
def duplication_example():
    return parse("(\\x.x x) (\\y.y)")


@pytest.fixture(scope="session")
def omega():
    return parse("(\\x.x x) (\\x.x x)")


@pytest.fixture(scope="session")
def corpus():
    return harness.gen_corpus(42, 200, 40)
