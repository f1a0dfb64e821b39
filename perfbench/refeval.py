"""Reference weak head reducer, kept apart from ``lamrun``.

Terms are plain tuples with de Bruijn indices:

    ("v", index)             variable
    ("l", path, body)        abstraction, tagged with its path in the input term
    ("a", fun, arg)          application

A path is a tuple of the steps ``"Fun"``, ``"Arg"`` and ``"Body"`` from the root,
the same addressing the machines use for their positions.  Tags survive
substitution, so after reduction the head abstraction still names the
occurrence in the input term it was copied from.  This module imports nothing
from ``lamrun``; the benchmark checks the program's outputs against it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

FUN = "Fun"
ARG = "Arg"
BODY = "Body"


class Budget(Exception):
    """Reduction went past the step or size budget it was given."""


def var(i: int) -> tuple:
    return ("v", i)


def lam(body: tuple) -> tuple:
    return ("l", None, body)


def app(f: tuple, x: tuple) -> tuple:
    return ("a", f, x)


def apps(head: tuple, *args: tuple) -> tuple:
    for a in args:
        head = app(head, a)
    return head


def tag(term: tuple) -> tuple:
    """Return ``term`` with every abstraction tagged by its path."""
    out: list = []
    # iterative post-order: deep chains exceed the recursion limit
    stack = [(term, (), False)]
    while stack:
        t, path, done = stack.pop()
        kind = t[0]
        if kind == "v":
            out.append(t)
        elif not done:
            stack.append((t, path, True))
            if kind == "l":
                stack.append((t[2], path + (BODY,), False))
            else:
                stack.append((t[2], path + (ARG,), False))
                stack.append((t[1], path + (FUN,), False))
        elif kind == "l":
            out.append(("l", path, out.pop()))
        else:
            x = out.pop()
            f = out.pop()
            out.append(("a", f, x))
    return out[0]


def size(term: tuple) -> int:
    n = 0
    stack = [term]
    while stack:
        t = stack.pop()
        n += 1
        if t[0] == "l":
            stack.append(t[2])
        elif t[0] == "a":
            stack.append(t[1])
            stack.append(t[2])
    return n


def _subst(body: tuple, arg: tuple, depth: int = 0) -> tuple:
    """Replace index ``depth`` by the closed ``arg``; lower the indices above it."""
    kind = body[0]
    if kind == "v":
        i = body[1]
        if i == depth:
            return arg
        return ("v", i - 1) if i > depth else body
    if kind == "l":
        return ("l", body[1], _subst(body[2], arg, depth + 1))
    return ("a", _subst(body[1], arg, depth), _subst(body[2], arg, depth))


@dataclass(frozen=True)
class Whnf:
    beta: int  # head reduction steps to weak head normal form
    head_path: tuple  # input-term path of the abstraction the result is


def whnf(term: tuple, max_steps: int = 10**6, max_size: Optional[int] = None) -> Whnf:
    """Weak head normal form of a closed tagged term, by head reduction.

    Raises :class:`Budget` past ``max_steps`` reductions, or when an
    intermediate term grows beyond ``max_size`` nodes.
    """
    spine: list = []  # arguments, innermost application last
    head = term
    beta = 0
    while True:
        while head[0] == "a":
            spine.append(head[2])
            head = head[1]
        if head[0] == "v":
            raise ValueError("open term: head variable at the top level")
        if not spine:
            return Whnf(beta, head[1])
        if beta == max_steps:
            raise Budget(f"more than {max_steps} reduction steps")
        head = _subst(head[2], spine.pop())
        beta += 1
        if max_size is not None and size(head) + sum(size(a) for a in spine) > max_size:
            raise Budget(f"an intermediate term exceeds {max_size} nodes")


# ---------------------------------------------------------------------------
# Input families and text


IDENTITY = lam(var(0))


def family_tn(n: int) -> tuple:
    """Left-nested identities: ``I``, ``I I``, ``(I I) I``, ..."""
    return apps(IDENTITY, *([IDENTITY] * (n - 1)))


def family_rkh(k: int, h: int) -> tuple:
    """``(λx1..xk.λy. y (λz1..zh.λz.z)) I^k (λw. w I^h)``."""
    tower = lam(var(0))
    for _ in range(h):
        tower = lam(tower)
    block = lam(app(var(0), tower))
    for _ in range(k):
        block = lam(block)
    spender = lam(apps(var(0), *([IDENTITY] * h)))
    return app(apps(block, *([IDENTITY] * k)), spender)


def church(n: int) -> tuple:
    """``c_n I I`` with ``c_n = λf.λx.f (f (.. x))``."""
    body = var(0)
    for _ in range(n):
        body = app(var(1), body)
    return apps(lam(lam(body)), IDENTITY, IDENTITY)


def two_two() -> tuple:
    """``two two I I`` with ``two = λf.λx.f (f x)``."""
    two = church(2)[1][1]
    return apps(two, two, IDENTITY, IDENTITY)


def identity_chain(depth: int) -> tuple:
    """``I (I (.. (λz.z)))`` with ``depth`` applied identities."""
    t = IDENTITY
    for _ in range(depth):
        t = app(IDENTITY, t)
    return t


def random_term(rng: random.Random, budget: int) -> tuple:
    """A random closed term of at most ``budget`` nodes."""

    def go(budget: int, depth: int) -> tuple:
        if budget <= 1:
            return var(rng.randrange(depth)) if depth else IDENTITY
        roll = rng.random()
        if depth and roll < 0.3:
            return var(rng.randrange(depth))
        if roll < (0.6 if depth else 0.25):
            return lam(go(budget - 1, depth + 1))
        left = rng.randint(1, budget - 1)
        return app(go(left, depth), go(budget - 1 - left, depth))

    return go(budget, 0)


class Namer:
    """Seeded binder names, all three characters long, so text length does not vary."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def __call__(self) -> str:
        return self.rng.choice("abcdefghijkmnpqrstuvwy") + f"{self.rng.randrange(100):02d}"


def to_text(term: tuple, namer: Namer) -> str:
    """Surface syntax with fresh seeded names; lamrun parses it back to ``term``."""
    out: list = []
    # explicit stack: identity chains are deeper than the recursion limit
    stack: list = [("term", term, (), "top")]
    while stack:
        item = stack.pop()
        if item[0] == "text":
            out.append(item[1])
            continue
        _, t, names, ctx = item
        kind = t[0]
        if kind == "v":
            out.append(names[-1 - t[1]])
            continue
        wrap = (kind == "l" and ctx in ("fun", "arg")) or (kind == "a" and ctx == "arg")
        if wrap:
            out.append("(")
            stack.append(("text", ")"))
        if kind == "l":
            name = namer()
            while name in names:
                name = namer()
            out.append("\\" + name + ".")
            stack.append(("term", t[2], names + (name,), "top"))
        else:
            stack.append(("term", t[2], names, "arg"))
            stack.append(("text", " "))
            stack.append(("term", t[1], names, "fun"))
    return "".join(out)


def from_program(term) -> tuple:
    """Read a ``lamrun`` term through its fields only (``index``/``body``/``fun``/``arg``)."""
    out: list = []
    stack = [(term, False)]
    while stack:
        t, done = stack.pop()
        if hasattr(t, "index"):
            out.append(var(t.index))
        elif hasattr(t, "body"):
            if done:
                out.append(lam(out.pop()))
            else:
                stack.append((t, True))
                stack.append((t.body, False))
        elif done:
            x = out.pop()
            f = out.pop()
            out.append(app(f, x))
        else:
            stack.append((t, True))
            stack.append((t.arg, False))
            stack.append((t.fun, False))
    return out[0]


# ---------------------------------------------------------------------------
# Worked examples, reduced by hand


def self_check() -> None:
    """Check the reducer on examples worked out by hand; raises on a mismatch."""
    i = IDENTITY
    k = lam(lam(var(1)))
    delta = lam(app(var(0), var(0)))
    examples = [
        # λz.z is already a value
        (i, 0, ()),
        # (λx.x) (λy.y) -> λy.y, the argument
        (app(i, i), 1, (ARG,)),
        # ((λx.x) I) I -> I I -> the outer argument
        (family_tn(3), 2, (ARG,)),
        # K I1 I2 -> (λy.I1) I2 -> I1, at Fun/Arg
        (apps(k, i, i), 2, (FUN, ARG)),
        # (λx.λy.y) (Δ Δ): one step, the divergent argument is dropped; head λy.y
        (app(lam(lam(var(0))), app(delta, delta)), 1, (FUN, BODY)),
        # Δ I -> I I -> I: both copies come from the argument at Arg
        (app(delta, i), 2, (ARG,)),
        # two I I -> (λx. I (I x)) I -> I (I I) -> I I -> I, the last step reaches Arg
        (church(2), 4, (ARG,)),
        # I (I (λz.z)): two steps, head is the innermost λz.z at Arg/Arg
        (identity_chain(2), 2, (ARG, ARG)),
    ]
    for term, beta, head in examples:
        got = whnf(tag(term))
        if (got.beta, got.head_path) != (beta, head):
            raise AssertionError(
                f"reference reducer: expected {beta} steps to {head}, got "
                f"{got.beta} steps to {got.head_path}")
    # r(1,1): (λx.λy. y (λz1.λz.z)) I (λw. w I)
    #   -> (λy. y (λz1.λz.z)) (λw. w I) -> (λw. w I) (λz1.λz.z)
    #   -> (λz1.λz.z) I -> λz.z, the body of the tower inside the block
    got = whnf(tag(family_rkh(1, 1)))
    tower_body = (FUN, FUN, BODY, BODY, ARG, BODY)
    if (got.beta, got.head_path) != (4, tower_body):
        raise AssertionError(f"reference reducer on r(1,1): {got}")
    try:
        whnf(tag(app(delta, delta)), max_steps=50)
    except Budget:
        pass
    else:
        raise AssertionError("reference reducer: Δ Δ must exhaust its budget")
