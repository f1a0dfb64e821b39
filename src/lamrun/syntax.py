"""Lambda-term syntax: named surface parser, de Bruijn core, positions, weak head reduction.

Terms are immutable trees with de Bruijn indices; the names carried by ``Var``
and ``Lam`` are presentation-only.  Machines never rewrite the term: they move
over a fixed root, from one occurrence's ``Node`` to a linked one, so terms
compare and hash by identity.  Traces and reports name an occurrence by its
root-relative path (``Fun``/``Arg``/``Body`` steps); the level of a path is its
number of ``Arg`` steps, i.e. the number of arguments the occurrence is buried
under.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Union

FUN = "Fun"
ARG = "Arg"
BODY = "Body"

Path = tuple  # tuple of FUN/ARG/BODY steps

DEFAULT_FUEL = 10_000_000


class LamError(Exception):
    pass


class LamSyntaxError(LamError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnboundIdentifier(LamError):
    def __init__(self, name: str):
        super().__init__(f"unbound identifier: {name!r}")
        self.name = name


class DefinitionCycle(LamError):
    def __init__(self, names):
        super().__init__("definition cycle: " + " -> ".join(names))
        self.names = tuple(names)


class NotClosed(LamError):
    pass


class Diverged(LamError):
    def __init__(self, fuel: int):
        super().__init__(f"no weak head normal form within {fuel} steps")
        self.fuel = fuel


@dataclass(slots=True, eq=False)
class Var:
    index: int
    name: str


@dataclass(slots=True, eq=False)
class Lam:
    name: str
    body: "Term"


@dataclass(slots=True, eq=False)
class App:
    fun: "Term"
    arg: "Term"


Term = Union[Var, Lam, App]


# ---------------------------------------------------------------------------
# Parsing


_TOKEN_RE = re.compile(r"[\\λ.()]|[A-Za-z][A-Za-z0-9_']*")
# a character no token holds: neither space nor a token's, or an identifier's
# non-initial character that does not follow an identifier character
_BAD_CHAR_RE = re.compile(r"[^\s\\λ.()A-Za-z0-9_']|(?<![A-Za-z0-9_'])[0-9_']")
# every token but an identifier, and "" for the end of the text
_SPECIAL = frozenset(("\\", "λ", ".", "(", ")", ""))


def _parse(text: str, free) -> Term:
    """De Bruijn term of ``term ::= λ ident+ . term | atom+ [λ ident+ . term]``,
    ``atom ::= ident | ( term )``, where a lambda extends to the end of its
    group and ``free(name)`` gives the term of an identifier that no binder
    in scope binds.

    One iterative pass over the tokens, so that nesting depth is not limited
    by the Python stack, with the errors of recursive descent.  Each open
    group folds its atoms into applications as they arrive, and a variable
    resolves in O(1) by the depths of its name's binders.  As if names were
    resolved after parsing, a syntax error takes precedence over the first
    error of ``free``.
    """
    bad = _BAD_CHAR_RE.search(text)
    if bad is not None:
        raise LamSyntaxError(f"unexpected character {bad[0]!r}", bad.start())
    toks = _TOKEN_RE.findall(text) + [""]

    def error(message, at):  # offsets are only needed for the message
        offsets = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
        return LamSyntaxError(message, offsets[at])

    scope: dict = {}  # name -> the depths of its binders in scope, innermost last
    depth = 0  # the number of binders in scope
    # the innermost open group: its atoms applied so far (None before the first),
    # its binder names if it is a lambda's body, whether it is a parenthesis;
    # the groups around it wait in ``outer``, innermost last
    value, names, paren = None, (), False
    outer: list = []
    name_error = None
    at = 0
    while True:
        tok = toks[at]
        if tok not in _SPECIAL:
            depths = scope.get(tok)
            if depths:
                atom = Var(depth - 1 - depths[-1], tok)
            else:
                try:
                    atom = free(tok)
                except LamError as exc:
                    atom, name_error = tok, name_error or exc
            value = atom if value is None else App(value, atom)
        elif tok == "(":
            outer.append((value, names, paren))
            value, names, paren = None, (), True
        elif tok == "\\" or tok == "λ":
            start = at = at + 1
            while toks[at] not in _SPECIAL:
                at += 1
            if at == start:
                raise error("expected at least one binder after lambda", at)
            if toks[at] != ".":
                raise error(f"expected dot, found {toks[at]!r}", at)
            outer.append((value, names, paren))
            value, names, paren = None, toks[start:at], False
            for name in names:
                scope.setdefault(name, []).append(depth)
                depth += 1
        else:  # a ")", the end, or a misplaced "."
            while True:  # a lambda's body ends with the group around it
                if value is None:
                    raise error(f"unexpected token {tok!r}", at)
                if not names:
                    break
                for name in reversed(names):
                    value = Lam(name, value)
                    scope[name].pop()
                depth -= len(names)
                body = value
                value, names, paren = outer.pop()
                value = body if value is None else App(value, body)
            if tok != (")" if paren else ""):
                raise error(f"expected {'rparen' if paren else 'eof'}, found {tok!r}", at)
            if not tok:
                if name_error is not None:
                    raise name_error
                return value
            inner = value
            value, names, paren = outer.pop()
            value = inner if value is None else App(value, inner)
        at += 1


def parse(text: str, definitions: Optional[Mapping[str, str]] = None) -> Term:
    """Parse ``text`` to a closed de Bruijn term, expanding named definitions.

    Definitions are expanded before de Bruijn conversion, so a defined name
    behaves exactly like its expansion; lambda binders shadow definitions.
    """
    defs = dict(definitions or {})
    expanded: dict = {}  # definition name -> its closed de Bruijn term

    def definition(name, active):
        if name not in defs:
            raise UnboundIdentifier(name)
        if name in active:
            raise DefinitionCycle(list(active) + [name])
        if name not in expanded:
            inner = active + (name,)
            expanded[name] = _parse(defs[name], lambda n: definition(n, inner))
        return expanded[name]

    return _parse(text, lambda name: definition(name, ()))


def load_definitions(text: str) -> dict:
    """Parse a definitions file: lines of ``name = term;`` (``#`` comments allowed)."""
    defs: dict = {}
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    for chunk in stripped.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise LamSyntaxError(f"definition without '=': {chunk!r}", 0)
        name, body = chunk.split("=", 1)
        name = name.strip()
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_']*", name):
            raise LamSyntaxError(f"bad definition name {name!r}", 0)
        defs[name] = body.strip()
    return defs


# ---------------------------------------------------------------------------
# Printing


def pretty(term: Term, hole: Optional[Path] = None) -> str:
    """Display printer using the carried names (may shadow; for traces only);
    the subterm at ``hole`` prints as ⟨·⟩.  Iterative, so depth is not limited
    by the Python stack."""
    path = hole or ()
    n = len(path)
    out: list = []
    # pieces still to emit, or (subterm, context, k), where k is the length of
    # the prefix of ``hole`` its path matches, or -1
    stack: list = [(term, "top", -1 if hole is None else 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, ctx, k = item
        while True:  # down the body/function spine; arguments wait on the stack
            if k == n:
                out.append("⟨·⟩")
                break
            if isinstance(t, Var):
                out.append(t.name)
                break
            if isinstance(t, Lam):
                if ctx != "top":
                    out.append("(")
                    stack.append(")")
                out.append("λ" + t.name + ".")
                k = k + 1 if 0 <= k < n and path[k] == BODY else -1
                t, ctx = t.body, "top"
            else:
                if ctx == "arg":
                    out.append("(")
                    stack.append(")")
                stack.append((t.arg, "arg", k + 1 if 0 <= k < n and path[k] == ARG else -1))
                stack.append(" ")
                k = k + 1 if 0 <= k < n and path[k] == FUN else -1
                t, ctx = t.fun, "fun"
    return "".join(out)


def path_str(path: Path) -> str:
    return "/".join(path)


# ---------------------------------------------------------------------------
# Structure


def term_size(term: Term) -> int:
    size, stack = 0, [term]
    while stack:
        t = stack.pop()
        size += 1
        if isinstance(t, App):
            stack += (t.fun, t.arg)
        elif isinstance(t, Lam):
            stack.append(t.body)
    return size


def is_closed(term: Term) -> bool:
    stack = [(term, 0)]
    while stack:
        t, d = stack.pop()
        if isinstance(t, App):
            stack += ((t.fun, d), (t.arg, d))
        elif isinstance(t, Lam):
            stack.append((t.body, d + 1))
        elif t.index >= d:
            return False
    return True


class Node:
    """One occurrence of a subterm in a fixed root term, linked to its
    neighbours.  ``side`` is the step from ``parent`` (None at the root); a
    variable knows its ``binder`` and ``inner``, the arguments it is buried
    under inside its binder.  Its ``path`` is made only where one is printed."""

    __slots__ = ("term", "parent", "side", "level", "fun", "arg", "body", "binder", "inner",
                 "_path")

    def __init__(self, term: Term, parent: Optional["Node"], side: Optional[str], level: int):
        self.term = term
        self.parent = parent
        self.side = side
        self.level = level  # the number of arguments the occurrence is buried under
        self.fun = self.arg = self.body = self.binder = self.inner = self._path = None

    @property
    def path(self) -> Path:
        """The root-relative path of the occurrence, made once."""
        if self._path is None:
            steps, n = [], self
            while n.parent is not None:
                steps.append(n.side)
                n = n.parent
            self._path = tuple(reversed(steps))
        return self._path


class TermIndex:
    """The occurrences of a closed term as linked nodes, built in one pass:
    ``top`` is the root's, ``nodes`` lists them all, parents first."""

    __slots__ = ("root", "size", "top", "nodes")

    def __init__(self, root: Term):
        self.root = root
        self.top = Node(root, None, None, 0)
        self.nodes = nodes = []
        lams: list = []  # the enclosing lambda nodes of the node being visited, outermost first
        stack = [(self.top, 0)]  # node, how many lambdas enclose it
        while stack:
            n, depth = stack.pop()
            nodes.append(n)
            del lams[depth:]  # preorder: the first ``depth`` entries enclose ``n``
            t = n.term
            if isinstance(t, Var):
                if t.index >= depth:
                    raise NotClosed("machines run on closed terms only")
                n.binder = lams[-(t.index + 1)]
                n.inner = n.level - n.binder.level
            elif isinstance(t, Lam):
                lams.append(n)
                n.body = Node(t.body, n, BODY, n.level)
                stack.append((n.body, depth + 1))
            else:
                n.fun = Node(t.fun, n, FUN, n.level)
                n.arg = Node(t.arg, n, ARG, n.level + 1)
                stack.append((n.arg, depth))
                stack.append((n.fun, depth))
        self.size = len(nodes)


# ---------------------------------------------------------------------------
# Weak head reduction


@dataclass(frozen=True)
class ReductionStep:
    """One β step at the head: the redex is applied to ``depth`` more arguments."""
    depth: int
    head: Term  # the contracted redex
    arg: Term  # the substituted argument
    substituted_occurrences: tuple  # paths in ``head`` holding copies of ``arg``


_REBUILD = object()  # work-list mark: reassemble a subterm from its new children


def _contract(body: Term, arg: Term, bounds: dict):
    """``body`` with closed ``arg`` substituted for the variable bound just
    outside it, and the paths in the result of the copies of ``arg``.

    One iterative walk does both.  Its path is one list, copied into a tuple
    only at an occurrence; a subterm the substitution leaves unchanged is kept.
    ``bounds`` maps a subterm to its free-index bound: one more than the
    largest de Bruijn index free in it, 0 if it is closed.  A subterm
    whose bound is at most the depth of the variable cannot hold it, and is
    kept without a walk; the walk records the bound of each subterm it keeps
    or builds, so that later steps skip them too.
    """
    occ: list = []
    path: list = []
    done: list = []  # rebuilt subterms and their bounds, function before argument
    # subterm or a mark, binder depth, length of its parent's path, step into it
    todo: list = [(body, 0, 0, None)]
    bounds[arg] = 0
    while todo:
        t, depth, at, step = todo.pop()
        if step is _REBUILD:
            if isinstance(t, Lam):
                b, bound = done.pop()
                if b is not t.body:
                    t = Lam(t.name, b)
                if bound:
                    bound -= 1
            else:
                a, bound = done.pop()
                f, fb = done.pop()
                if f is not t.fun or a is not t.arg:
                    t = App(f, a)
                if fb > bound:
                    bound = fb
            bounds[t] = bound
            done.append((t, bound))
            continue
        if isinstance(t, Var):
            i = t.index
            if i == depth:
                del path[at:]
                if step is not None:
                    path.append(step)
                occ.append(tuple(path))
                done.append((arg, 0))
            elif i > depth:
                done.append((Var(i - 1, t.name), i))
            else:
                done.append((t, i + 1))
            continue
        bound = bounds.get(t)
        if bound is not None and bound <= depth:
            done.append((t, bound))
            continue
        del path[at:]
        if step is not None:
            path.append(step)
        todo.append((t, depth, at, _REBUILD))
        if isinstance(t, Lam):
            todo.append((t.body, depth + 1, len(path), BODY))
        else:
            here = len(path)
            todo.append((t.arg, depth, here, ARG))
            todo.append((t.fun, depth, here, FUN))
    return done[0][0], tuple(occ)


def whnf_steps(t: Term):
    """The weak head reduction steps from ``t``, one at a time: the one loop
    that reduces.  The arguments of the head spine wait on a stack, the
    innermost on top; a step pops one and contracts the redex alone, so it
    costs nothing per argument left on the spine.  The steps share one table
    of free-index bounds, keyed by subterm: terms hash by identity, and the
    table keeps each key alive."""
    bounds: dict = {}
    args: list = []
    while True:
        while isinstance(t, App):
            args.append(t.arg)
            t = t.fun
        if not args:
            return
        if not isinstance(t, Lam):
            raise NotClosed("head variable reached the top level; term is open")
        arg = args.pop()
        t, occ = _contract(t.body, arg, bounds)
        yield ReductionStep(len(args), t, arg, occ)


def whnf_trace(t: Term, fuel: int = DEFAULT_FUEL):
    """Maximal weak head reduction sequence; raises :class:`Diverged` on fuel exhaustion."""
    steps = []
    for step in whnf_steps(t):
        if len(steps) == fuel:
            raise Diverged(fuel)
        steps.append(step)
    return steps
