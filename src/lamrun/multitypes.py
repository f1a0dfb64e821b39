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
only what it changes.  The derivation's left spine is a list, root first, so
the judgement of the contracted head is the entry at the step's spine depth.
The copies of ``w`` are found by following their paths, relative to the head,
as a trie; only the judgements on those paths are rebuilt, the cut
subderivations move into the new application as they are, and the new redex
replaces the head on its spine in place, since no judgement is shared
(``validate`` checks that).  Each judgement's ``subject``, the node of
``t``'s ``TermIndex`` it types, is then set once, by a final pass that walks
the index alongside the derivation.

Two weight assignments decorate derivations; both are plain per-node sums.
One charges 1 per variable, abstraction, and application rule and predicts
Krivine machine run lengths; the other charges the number of ★ occurrences in
the node's right-hand type and predicts interaction machine run lengths.  An
arrow type counts its ★ occurrences once, when it is built, so both weights
are linear in the number of judgements.  The one pass of ``DerivationIndex``
gives each judgement its links, which the SIAM and ``validate`` read.
"""
from __future__ import annotations

import functools
import itertools
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
    stars = 1  # ★ occurrences, read as an arrow's are; a class attribute, not a field

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

    # the first ★'s number of each domain entry, then of the target (the domain's
    # ★ total): entry ``i`` starts at ``starts[i - 1]``, the target at ``starts[-1]``;
    # only the SIAM reads it
    @functools.cached_property
    def starts(self) -> tuple:
        return tuple(itertools.accumulate((e.stars for e in self.domain), initial=0))


LinearType = Union[Star, Arrow]


def star_norm(ty) -> int:
    """Number of ★ occurrences in a linear type or sequence (tuple) of them."""
    if isinstance(ty, tuple):
        return sum(map(star_norm, ty))
    return ty.stars


def type_str(ty) -> str:
    if isinstance(ty, Star):
        return "★"
    return "[" + ",".join(type_str(e) for e in ty.domain) + "]→" + type_str(ty.target)


class ExpansionMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# Derivations


class Judgement:
    """One rule instance about its ``subject`` node; None only while being built.
    Its links are those that the most recent ``DerivationIndex`` over it set: its
    ``parent`` (None at the root), its ``slot`` there ("body", "left" or the 1-based
    right premise), its preorder ``ordinal`` and the global number of its first ★."""
    __slots__ = ("parent", "slot", "ordinal", "first")
    term_pos = property(lambda j: j.subject.path)  # the path of the ``subject`` node


@dataclass(eq=False, slots=True)
class DVar(Judgement):
    subject: Node
    db_index: int
    rh_type: LinearType
    # links: the binding abstraction (None when free), the 1-based place among its axioms
    binder: "DLam" = field(init=False, repr=False)
    place: int = field(init=False, repr=False)


@dataclass(eq=False, slots=True)
class DLamStar(Judgement):
    subject: Node
    rh_type: LinearType = STAR


@dataclass(eq=False, slots=True)
class DLam(Judgement):
    subject: Node
    domain: tuple
    body: "Derivation"
    rh_type: LinearType
    axioms: list = field(init=False, repr=False)  # link: the bound axioms, leaf order


@dataclass(eq=False, slots=True)
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
    """The one pass that links a derivation's judgements, each binder's axioms in leaf
    order; keeps the preorder, the ★ total, the subject, and the unbound axioms in
    ``free``.  Indexing a subderivation re-roots it until the whole is indexed again."""

    def __init__(self, deriv: Derivation, subject: Term):
        self.deriv, self.root = deriv, subject
        self.preorder: list = []
        self.free: list = []  # DVar judgements that no abstraction above them binds
        preorder, stars = self.preorder, 0  # ``stars``: the ★s of the judgements before
        lams: list = []  # the abstraction judgements above the one visited, outermost first
        stack = [(deriv, None, None, 0)]  # judgement, parent, slot, abstractions above it
        while stack:
            node, parent, slot, depth = stack.pop()
            k = getattr(node, "ordinal", -1)  # it may be an earlier index's
            if 0 <= k < len(preorder) and preorder[k] is node:
                continue  # a shared judgement, which ``validate`` reports
            node.parent, node.slot, node.ordinal, node.first = parent, slot, len(preorder), stars
            preorder.append(node)
            stars += node.rh_type.stars
            del lams[depth:]  # preorder: the first ``depth`` entries are above ``node``
            if isinstance(node, DVar) and not 0 <= node.db_index < depth:
                node.binder, node.place = None, 0
                self.free.append(node)
            elif isinstance(node, DVar):
                binder = lams[depth - 1 - node.db_index]
                binder.axioms.append(node)
                node.binder, node.place = binder, len(binder.axioms)
            elif isinstance(node, DLam):
                node.axioms = []
                lams.append(node)
                stack.append((node.body, node, "body", depth + 1))
            elif isinstance(node, DApp):
                for i in range(len(node.rights), 0, -1):
                    stack.append((node.rights[i - 1], node, i, depth))
                stack.append((node.left, node, "left", depth))
        self.stars = stars

    @functools.cached_property
    def size(self) -> int:
        """The subject's size, walked only when read: ``reporting.drive`` reads it
        for a run's ``ram_cost_bound``, so every SIAM run does, ``check weights``
        included; the ``iam-siam`` and ``invariants`` checkers never do."""
        return term_size(self.root)


def validate(index: DerivationIndex) -> list:
    """Local-correctness, shape, relevance, and axiom-order problems of an indexed
    derivation (empty = valid); a premise must be about the very child node its rule expects."""
    root, subject = index.deriv, index.root
    problems: list = []
    seen: set = set()

    def note(node, msg):
        problems.append(f"{path_str(node.term_pos) or '·'}: {msg}")

    if root.subject.parent is not None or root.subject.term is not subject:
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
    for lam in reversed(index.preorder):  # the binding rule; an abstraction before those around it
        if isinstance(lam, DLam) and tuple(a.rh_type for a in lam.axioms) != tuple(lam.domain):
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


def _expand(step, spine: list) -> None:
    """Undo one weak head step on the derivation of its result, whose left
    spine, root first, is ``spine`` and whose judgements have no subject yet:
    the new redex replaces the head, ``spine[step.depth]``, in place."""
    depth = step.depth
    if depth >= len(spine):
        raise ExpansionMismatch("derivation spine shorter than the redex spine")
    head = spine[depth]
    if step.substituted_occurrences:
        trie: dict = {}
        for occ in step.substituted_occurrences:
            sub = trie
            for s in occ:
                sub = sub.setdefault(s, {})
        body, cut = _cut(head, trie)
    else:
        body, cut = head, []
    domain = tuple(d.rh_type for d in cut)
    lam = DLam(None, domain, body, Arrow(domain, head.rh_type))
    redex = DApp(None, lam, tuple(cut), head.rh_type)
    if depth:
        spine[depth - 1].left = redex
    spine[depth:] = (redex, lam)


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
    """Derivation, without subjects, of the term that the weak head reduction
    ``steps`` starts from, undoing ``steps`` from its end; empties ``steps``."""
    spine: list = [DLamStar(None)]  # the derivation's left spine, root first
    while steps:  # popping releases each step's terms once it is undone
        _expand(steps.pop(), spine)
    return spine[0]


def star_derivation(index: TermIndex, steps: list) -> Derivation:
    """Derivation of ``index.root : ★`` about the nodes of ``index``, from the
    weak head reduction ``steps`` of ``index.root``; empties ``steps``."""
    return _place(_build(steps), index.top)


def infer_star_derivation(term: Term, fuel: int = DEFAULT_FUEL) -> Derivation:
    """Derivation of ``term : ★`` about the nodes of a fresh TermIndex; raises
    Diverged when there is no whnf in fuel."""
    return star_derivation(TermIndex(term), whnf_trace(term, fuel))


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
