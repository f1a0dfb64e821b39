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

Two weight assignments decorate derivations; both are plain per-node sums.
One charges 1 per variable, abstraction, and application rule and predicts
Krivine machine run lengths; the other charges the number of ★ occurrences in
the node's right-hand type and predicts interaction machine run lengths.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Union

from .syntax import (
    ARG,
    BODY,
    FUN,
    DEFAULT_FUEL,
    App,
    Lam,
    Path,
    Term,
    Var,
    path_str,
    pretty,
    resolve,
    whnf_trace,
)

# derivation trees grow with the reduction length; plain recursion needs headroom
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


LinearType = Union[Star, Arrow]


def star_norm(ty) -> int:
    """Number of ★ occurrences in a linear type or sequence (tuple) of them."""
    memo: dict = {}

    def go(x):
        if isinstance(x, Star):
            return 1
        r = memo.get(id(x))
        if r is not None:
            return r
        if isinstance(x, tuple):
            r = sum(go(e) for e in x)
        else:
            r = go(x.domain) + go(x.target)
        memo[id(x)] = r
        return r

    return go(ty)


def type_str(ty) -> str:
    if isinstance(ty, Star):
        return "★"
    return "[" + ",".join(type_str(e) for e in ty.domain) + "]→" + type_str(ty.target)


class ExpansionMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# Derivations


@dataclass(frozen=True, eq=False)
class DVar:
    term_pos: Path
    db_index: int
    rh_type: LinearType


@dataclass(frozen=True, eq=False)
class DLamStar:
    term_pos: Path
    rh_type: LinearType = STAR


@dataclass(frozen=True, eq=False)
class DLam:
    term_pos: Path
    domain: tuple
    body: "Derivation"
    rh_type: LinearType


@dataclass(frozen=True, eq=False)
class DApp:
    term_pos: Path
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
        stack.extend(reversed(children(node)))


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
# Environments and validation


def _merge_env(*envs) -> dict:
    out: dict = {}
    for env in envs:
        for k, types in env.items():
            out[k] = out.get(k, ()) + types
    return out


def compute_env(node, check_domain=None) -> dict:
    """Map de Bruijn index -> sequence of types, in left-to-right axiom order.

    ``check_domain(lam, bound)``, when given, sees every abstraction with the
    types of its bound variable's axioms.
    """
    if isinstance(node, DVar):
        return {node.db_index: (node.rh_type,)}
    if isinstance(node, DLamStar):
        return {}
    if isinstance(node, DLam):
        inner = compute_env(node.body, check_domain)
        if check_domain is not None:
            check_domain(node, inner.get(0, ()))
        return {k - 1: v for k, v in inner.items() if k > 0}
    return _merge_env(compute_env(node.left, check_domain),
                      *(compute_env(r, check_domain) for r in node.rights))


def validate(root, subject: Term) -> list:
    """Local-correctness, shape, relevance, and axiom-order problems (empty = valid)."""
    problems: list = []
    seen_ids: set = set()

    def note(node, msg):
        problems.append(f"{path_str(node.term_pos) or '·'}: {msg}")

    def check_domain(node, bound):
        if tuple(bound) != tuple(node.domain):
            note(node, "domain differs from the bound variable's axiom sequence")

    for node in iter_nodes(root):
        if id(node) in seen_ids:
            note(node, "node object occurs twice in one derivation")
        seen_ids.add(id(node))
        try:
            term, _ = resolve(subject, node.term_pos)
        except Exception as exc:  # noqa: BLE001 - reported as a problem
            problems.append(f"{path_str(node.term_pos)}: {exc}")
            continue
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
            if node.body.term_pos != node.term_pos + (BODY,):
                note(node, "body premise is not at the body position")
            if not isinstance(node.rh_type, Arrow) or node.rh_type != Arrow(
                tuple(node.domain), node.body.rh_type
            ):
                note(node, "conclusion type is not domain -> body type")
        else:
            if not isinstance(term, App):
                note(node, "application rule on a non-application")
            if node.left.term_pos != node.term_pos + (FUN,):
                note(node, "left premise is not at the function position")
            lt = node.left.rh_type
            if not isinstance(lt, Arrow):
                note(node, "left premise does not have an arrow type")
            else:
                if len(lt.domain) != len(node.rights):
                    note(node, "argument multiplicity differs from the domain length")
                else:
                    for i, r in enumerate(node.rights):
                        if r.term_pos != node.term_pos + (ARG,):
                            note(node, f"right premise {i + 1} is not at the argument position")
                        if r.rh_type != lt.domain[i]:
                            note(node, f"right premise {i + 1} type differs from domain entry")
                if node.rh_type != lt.target:
                    note(node, "conclusion type is not the arrow target")
    if compute_env(root, check_domain):
        problems.append("closed subject with a non-empty type environment")
    return problems


# ---------------------------------------------------------------------------
# Construction by expansion along weak head reduction


def _relocate(node, cut: int, new_base: Path, occ=frozenset(), deltas=None):
    """Copy of ``node`` with the first ``cut`` steps of every position replaced
    by ``new_base``.  Subderivations at positions in ``occ`` are cut out into
    ``deltas`` and replaced by axioms on the variable bound just above ``node``.
    """

    def go(n, depth):
        pos = new_base + n.term_pos[cut:]
        if occ and n.term_pos in occ:
            deltas.append(n)
            return DVar(pos, depth, n.rh_type)
        if isinstance(n, DVar):
            return DVar(pos, n.db_index, n.rh_type)
        if isinstance(n, DLamStar):
            return DLamStar(pos)
        if isinstance(n, DLam):
            return DLam(pos, n.domain, go(n.body, depth + 1), n.rh_type)
        return DApp(pos, go(n.left, depth), tuple(go(r, depth) for r in n.rights), n.rh_type)

    return go(node, 0)


def _expand(step, deriv):
    """Undo one weak head step on the derivation of ``step.after``."""
    node = step.before
    h = 0
    while isinstance(node.fun, App):
        node = node.fun
        h += 1
    spine = []
    current = deriv
    for _ in range(h):
        if not isinstance(current, DApp):
            raise ExpansionMismatch("derivation spine shorter than the redex spine")
        spine.append(current)
        current = current.left
    head = current
    base = (FUN,) * h
    if head.term_pos != base:
        raise ExpansionMismatch("head subderivation is not at the head position")
    deltas: list = []
    body = _relocate(head, h, base + (FUN, BODY), set(step.substituted_occurrences), deltas)
    domain = tuple(d.rh_type for d in deltas)
    lam_node = DLam(base + (FUN,), domain, body, Arrow(domain, head.rh_type))
    rights = tuple(_relocate(d, len(d.term_pos), base + (ARG,)) for d in deltas)
    result: Derivation = DApp(base, lam_node, rights, head.rh_type)
    for sp in reversed(spine):
        result = DApp(sp.term_pos, result, sp.rights, sp.rh_type)
    return result


def infer_star_derivation(term: Term, fuel: int = DEFAULT_FUEL):
    """Derivation of ``term : ★``; raises Diverged when there is no whnf in fuel."""
    steps = whnf_trace(term, fuel)
    deriv: Derivation = DLamStar(())
    for step in reversed(steps):
        deriv = _expand(step, deriv)
    return deriv


# ---------------------------------------------------------------------------
# Output


def derivation_to_json(root) -> dict:
    def go(n):
        out = {
            "pos": path_str(n.term_pos),
            "type": type_str(n.rh_type),
        }
        if isinstance(n, DVar):
            out["rule"] = "var"
            out["index"] = n.db_index
        elif isinstance(n, DLamStar):
            out["rule"] = "lam-star"
        elif isinstance(n, DLam):
            out["rule"] = "lam"
            out["domain"] = [type_str(t) for t in n.domain]
            out["body"] = go(n.body)
        else:
            out["rule"] = "app"
            out["left"] = go(n.left)
            out["rights"] = [go(r) for r in n.rights]
        return out

    return go(root)


def derivation_pretty(root, subject: Term) -> str:
    """Indented inference-tree rendering, premises above their rule."""
    lines: list = []

    def go(n, depth):
        for child in children(n):
            go(child, depth + 1)
        term, _ = resolve(subject, n.term_pos)
        rule = {DVar: "var", DLamStar: "λ★", DLam: "λ", DApp: "@"}[type(n)]
        lines.append(
            "  " * depth
            + f"[{rule}] ⊢ {pretty(term)} : {type_str(n.rh_type)}"
            + (f"   (at {path_str(n.term_pos) or '·'})")
        )

    go(root, 0)
    return "\n".join(reversed(lines))
