"""Sequence types (ordered, non-idempotent intersections) and their derivations.

A derivation of ``t : ★`` is built backwards along the weak head reduction of
``t``: the normal form is typed by the single star-abstraction rule, and each
reduction step ``H[(λx.u) w] -> H[u{x:=w}]`` is undone by cutting out, in
left-to-right leaf order, the subderivations typing the substituted copies of
``w``, replacing them with variable axioms, and reassembling an application of
an abstraction over ``u`` to those subderivations.  Copies that sit in untyped
regions (for instance under a star-typed abstraction) simply have no
subderivation and are skipped, as the type system demands.  Arguments of head
redexes are closed, so the cut subderivations carry no type environment and
the domain order of the new abstraction is exactly the axiom order.

The expansion builds the derivation's own judgements, with ``subject`` None
while it runs, as a step moves subderivations to new places.  A step touches
only what it changes.  The copies of ``w`` are found by following their paths,
relative to the head, as a trie; only the judgements on those paths are
rebuilt, the cut subderivations move into the new application as they are, and
the new redex replaces the head on its spine in place, since no judgement is
shared (``validate`` checks that).  Each judgement's ``subject``, the node of
``t``'s ``TermIndex`` it types, is then set once, by a final pass that walks
the index alongside the derivation.

Two weight assignments decorate derivations; both are plain per-node sums.
One charges 1 per variable, abstraction, and application rule and predicts
Krivine machine run lengths; the other charges the number of ★ occurrences in
the node's right-hand type and predicts interaction machine run lengths.  An
arrow type counts its ★ occurrences once, when it is built, so both weights
are linear in the number of judgements.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Union

from .syntax import (
    ARG,
    BODY,
    FUN,
    DEFAULT_FUEL,
    App,
    Lam,
    Node,
    Term,
    TermIndex,
    Var,
    path_str,
    pretty,
    term_size,
    whnf_trace,
)

# the derivation walks and the token encoder are iterative, but ``type_str``
# recurses once per arrow nesting, and ``json.dumps`` of ``types --json``
# once per level of the derivation's JSON
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))


@dataclass(frozen=True)
class Star:
    def __repr__(self):
        return "★"


STAR = Star()


@dataclass(frozen=True)
class Arrow:
    domain: tuple  # tuple of linear types, order-significant
    target: "LinearType"
    # ★ occurrences, counted once at construction; not part of equality
    stars: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "stars", star_norm(self.domain) + star_norm(self.target))


LinearType = Union[Star, Arrow]


def star_norm(ty) -> int:
    """Number of ★ occurrences in a linear type or sequence (tuple) of them."""
    if isinstance(ty, tuple):
        return sum(map(star_norm, ty))
    return 1 if isinstance(ty, Star) else ty.stars


def type_str(ty) -> str:
    if isinstance(ty, Star):
        return "★"
    return "[" + ",".join(type_str(e) for e in ty.domain) + "]→" + type_str(ty.target)


class ExpansionMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# Derivations


class Judgement:
    """One rule instance about its ``subject`` node; None only while being built."""
    term_pos = property(lambda j: j.subject.path)  # the path of the ``subject`` node


@dataclass(eq=False)
class DVar(Judgement):
    subject: Node
    db_index: int
    rh_type: LinearType


@dataclass(eq=False)
class DLamStar(Judgement):
    subject: Node
    rh_type: LinearType = STAR


@dataclass(eq=False)
class DLam(Judgement):
    subject: Node
    domain: tuple
    body: "Derivation"
    rh_type: LinearType


@dataclass(eq=False)
class DApp(Judgement):
    subject: Node
    left: "Derivation"
    rights: tuple
    rh_type: LinearType


Derivation = Union[DVar, DLamStar, DLam, DApp]


def children(node) -> tuple:
    if isinstance(node, DLam):
        return (node.body,)
    if isinstance(node, DApp):
        return (node.left,) + node.rights
    return ()


def iter_nodes(root):
    """Pre-order, left premise before right premises (leaf order)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, DApp):
            stack.extend(node.rights[::-1])
            stack.append(node.left)
        elif isinstance(node, DLam):
            stack.append(node.body)


def star_count(root) -> int:
    """Total ★ occurrences in right-hand types across all judgements."""
    return sum(star_norm(n.rh_type) for n in iter_nodes(root))


def weight_kam(root) -> int:
    total = 0
    for n in iter_nodes(root):
        if not isinstance(n, DLamStar):
            total += 1
    return total


def weight_iam(root) -> int:
    total = 0
    for n in iter_nodes(root):
        if not isinstance(n, DLamStar):
            total += star_norm(n.rh_type)
    return total


# ---------------------------------------------------------------------------
# Binding and validation


class DerivationIndex:
    """Parent links, binder-axiom numbering (leaf order), preorder ordinals and the
    subject term of one derivation; axioms that no abstraction binds go to ``free``."""

    def __init__(self, deriv: Derivation, subject: Term):
        self.deriv = deriv
        self.root = subject
        self.size = term_size(subject)
        self.parent: dict = {}
        self.axioms: dict = {}  # DLam -> list of DVar, leaf order (judgements hash by identity)
        self.binder: dict = {}  # DVar -> (DLam, 1-based ordinal)
        self.ordinal: dict = {}
        self.free: list = []  # DVar judgements that no abstraction above them binds
        lams: list = []  # the abstraction judgements above the one visited, outermost first
        stack = [(deriv, 0)]  # judgement, how many abstraction judgements are above it
        while stack:
            node, depth = stack.pop()
            if node in self.ordinal:  # a shared judgement, which ``validate`` reports
                continue
            self.ordinal[node] = len(self.ordinal)
            del lams[depth:]  # preorder: the first ``depth`` entries are above ``node``
            if isinstance(node, DVar) and not 0 <= node.db_index < depth:
                self.free.append(node)
            elif isinstance(node, DVar):
                binder = lams[depth - 1 - node.db_index]
                entries = self.axioms.setdefault(binder, [])
                entries.append(node)
                self.binder[node] = (binder, len(entries))
            elif isinstance(node, DLam):
                lams.append(node)
                self.parent[node.body] = (node, ("body", 0))
                stack.append((node.body, depth + 1))
            elif isinstance(node, DApp):
                self.parent[node.left] = (node, ("left", 0))
                for i, r in enumerate(node.rights):
                    self.parent[r] = (node, ("right", i + 1))
                for child in reversed(node.rights):
                    stack.append((child, depth))
                stack.append((node.left, depth))


def validate(root, subject: Term) -> list:
    """Local-correctness, shape, relevance, and axiom-order problems (empty = valid);
    a premise must be about the very child node its rule expects."""
    problems: list = []
    seen: set = set()

    def note(node, msg):
        problems.append(f"{path_str(node.term_pos) or '·'}: {msg}")

    if root.subject.parent is not None or root.subject.term != subject:
        note(root, "conclusion is not about the root of the subject")
    for node in iter_nodes(root):
        if node in seen:
            note(node, "node object occurs twice in one derivation")
        seen.add(node)
        sub = node.subject
        term = sub.term
        if isinstance(node, DVar):
            if not isinstance(term, Var) or term.index != node.db_index:
                note(node, "axiom does not sit on a matching variable occurrence")
        elif isinstance(node, DLamStar):
            if not isinstance(term, Lam):
                note(node, "star abstraction rule on a non-abstraction")
            if not isinstance(node.rh_type, Star):
                note(node, "star abstraction rule with a non-star type")
        elif isinstance(node, DLam):
            if not isinstance(term, Lam):
                note(node, "abstraction rule on a non-abstraction")
            if node.body.subject is not sub.body:
                note(node, "body premise is not at the body position")
            if not isinstance(node.rh_type, Arrow) or node.rh_type != Arrow(
                tuple(node.domain), node.body.rh_type
            ):
                note(node, "conclusion type is not domain -> body type")
        else:
            if not isinstance(term, App):
                note(node, "application rule on a non-application")
            if node.left.subject is not sub.fun:
                note(node, "left premise is not at the function position")
            lt = node.left.rh_type
            if not isinstance(lt, Arrow):
                note(node, "left premise does not have an arrow type")
            else:
                if len(lt.domain) != len(node.rights):
                    note(node, "argument multiplicity differs from the domain length")
                else:
                    for i, r in enumerate(node.rights):
                        if r.subject is not sub.arg:
                            note(node, f"right premise {i + 1} is not at the argument position")
                        if r.rh_type != lt.domain[i]:
                            note(node, f"right premise {i + 1} type differs from domain entry")
                if node.rh_type != lt.target:
                    note(node, "conclusion type is not the arrow target")
    index = DerivationIndex(root, subject)
    for lam in reversed(index.ordinal):  # the binding rule; an abstraction before those around it
        if isinstance(lam, DLam) and tuple(
                a.rh_type for a in index.axioms.get(lam, ())) != tuple(lam.domain):
            note(lam, "domain differs from the bound variable's axiom sequence")
    if index.free:
        problems.append("closed subject with a non-empty type environment")
    return problems


# ---------------------------------------------------------------------------
# Construction by expansion along weak head reduction


_REBUILD = object()  # work-list mark: reassemble a judgement from its new premises


def _cut(head, trie) -> tuple:
    """``head`` with the subderivations at the leaves of ``trie`` (nested
    dicts of path steps, a leaf is empty) replaced by axioms on the variable
    bound just above ``head``; also the cut subderivations, in leaf order.

    Only the judgements on the trie's paths are rebuilt.  A path into an
    untyped region ends at a star rule, with nothing cut.
    """
    cut: list = []
    done: list = []  # rebuilt premises, in leaf order
    todo: list = [(head, trie, 0)]  # judgement, its subtrie or a mark, binder depth
    while todo:
        node, sub, depth = todo.pop()
        if sub is _REBUILD:
            if isinstance(node, DLam):
                done.append(DLam(None, node.domain, done.pop(), node.rh_type))
            else:
                k = 1 + len(node.rights)
                premises = done[-k:]
                del done[-k:]
                done.append(DApp(None, premises[0], tuple(premises[1:]), node.rh_type))
        elif sub is None:
            done.append(node)
        elif not sub:
            cut.append(node)
            done.append(DVar(None, depth, node.rh_type))
        elif isinstance(node, DApp):
            todo.append((node, _REBUILD, depth))
            arg = sub.get(ARG)
            todo.extend((r, arg, depth) for r in reversed(node.rights))
            todo.append((node.left, sub.get(FUN), depth))
        elif isinstance(node, DLam):
            todo.append((node, _REBUILD, depth))
            todo.append((node.body, sub.get(BODY), depth + 1))
        else:
            done.append(node)
    return done[0], cut


def _expand(step, deriv):
    """Undo one weak head step on the derivation of ``step.after``, whose
    judgements have no subject yet: the new redex replaces the head in place."""
    node = step.before
    h = 0
    while isinstance(node.fun, App):
        node = node.fun
        h += 1
    above, head = None, deriv  # ``head`` is the left premise of ``above``
    for _ in range(h):
        if not isinstance(head, DApp):
            raise ExpansionMismatch("derivation spine shorter than the redex spine")
        above, head = head, head.left
    if step.substituted_occurrences:
        trie: dict = {}
        for occ in step.substituted_occurrences:
            sub = trie
            for s in occ[h:]:
                sub = sub.setdefault(s, {})
        body, cut = _cut(head, trie)
    else:
        body, cut = head, []
    domain = tuple(d.rh_type for d in cut)
    lam = DLam(None, domain, body, Arrow(domain, head.rh_type))
    redex = DApp(None, lam, tuple(cut), head.rh_type)
    if above is None:
        return redex
    above.left = redex
    return deriv


def _place(root, top: Node) -> Derivation:
    """``root`` with each judgement's ``subject`` set, ``top`` for ``root``'s.
    The right premises of one application are all about its argument node."""
    todo: list = [(root, top)]
    while todo:
        node, n = todo.pop()
        node.subject = n
        if isinstance(node, DApp):
            todo.extend((r, n.arg) for r in node.rights)
            todo.append((node.left, n.fun))
        elif isinstance(node, DLam):
            todo.append((node.body, n.body))
    return root


def _build(steps: list):
    """Derivation of ``steps[0].before : ★``, without subjects, undoing the
    weak head reduction ``steps`` from its end; empties ``steps``."""
    deriv = DLamStar(None)
    while steps:  # popping releases each step's terms once it is undone
        deriv = _expand(steps.pop(), deriv)
    return deriv


def star_derivation(index: TermIndex, steps: list) -> Derivation:
    """Derivation of ``index.root : ★`` about the nodes of ``index``, from the
    weak head reduction ``steps`` of ``index.root``; empties ``steps``."""
    return _place(_build(steps), index.top)


def infer_star_derivation(term, fuel: int = DEFAULT_FUEL):
    """Derivation of ``term : ★`` about the nodes of a TermIndex, ``term`` itself
    or a fresh one; raises Diverged when there is no whnf in fuel."""
    index = term if isinstance(term, TermIndex) else TermIndex(term)
    return star_derivation(index, whnf_trace(index.root, fuel))


# ---------------------------------------------------------------------------
# Output


def derivation_to_json(root) -> dict:
    doc: dict = {}
    todo: list = [(root, doc)]  # judgement, its still empty document
    while todo:
        n, out = todo.pop()
        out["pos"] = path_str(n.term_pos)
        out["type"] = type_str(n.rh_type)
        if isinstance(n, DVar):
            out["rule"] = "var"
            out["index"] = n.db_index
        elif isinstance(n, DLamStar):
            out["rule"] = "lam-star"
        elif isinstance(n, DLam):
            out["rule"] = "lam"
            out["domain"] = [type_str(t) for t in n.domain]
            out["body"] = body = {}
            todo.append((n.body, body))
        else:
            out["rule"] = "app"
            out["left"] = left = {}
            out["rights"] = rights = [{} for _ in n.rights]
            todo.extend(zip(n.rights, rights))
            todo.append((n.left, left))
    return doc


def derivation_pretty(root) -> str:
    """Indented inference-tree rendering, premises above their rule."""
    lines: list = []
    todo: list = [(root, 0)]  # judgement, depth
    while todo:  # conclusion first, then its premises from the last one
        n, depth = todo.pop()
        rule = {DVar: "var", DLamStar: "λ★", DLam: "λ", DApp: "@"}[type(n)]
        lines.append(
            "  " * depth
            + f"[{rule}] ⊢ {pretty(n.subject.term)} : {type_str(n.rh_type)}"
            + (f"   (at {path_str(n.term_pos) or '·'})")
        )
        todo.extend((p, depth + 1) for p in children(n))
    return "\n".join(lines)
