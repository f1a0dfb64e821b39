"""Sequence-type interaction machine: walks a fixed ``t : ★`` derivation.

A state is a judgement occurrence plus a type path isolating one ★ occurrence
in its right-hand type, with a direction: ``up`` moves toward the premises,
``down`` toward the conclusion.  Derivations are upside-down with respect to
terms, so ``up`` here corresponds to the interaction machine's down phase.
The run is a Hamiltonian path over ★ occurrences: single initial state,
bi-determinism, and acyclicity leave no other option.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import multitypes as mt, reporting
from .multitypes import DApp, DLam, DVar, Derivation, Star, star_count
from .reporting import DUAL, FINAL, FLIP, Machine, Next, NodeState, Stuck
from .syntax import DEFAULT_FUEL, Term, term_size
from .tokens import json_text

TO_LEAVES = "up"
TO_ROOT = "down"

TARGET = 0  # type-path step into an arrow target; positive i enters domain entry i


class DerivationIndex:
    """Parent links, binder-axiom numbering, and the subject term for one derivation."""

    def __init__(self, deriv: Derivation, subject: Term):
        self.deriv = deriv
        self.root = subject
        self.size = term_size(subject)
        self.parent: dict = {}
        self.axioms: dict = {}  # DLam -> list of DVar, leaf order (judgements hash by identity)
        self.binder: dict = {}  # DVar -> (DLam, 1-based ordinal)
        self.ordinal: dict = {}
        lams: list = []  # the abstraction judgements above the one visited, outermost first
        stack = [(deriv, 0)]  # judgement, how many abstraction judgements are above it
        while stack:
            node, depth = stack.pop()
            self.ordinal[node] = len(self.ordinal)
            del lams[depth:]  # preorder: the first ``depth`` entries are above ``node``
            if isinstance(node, DVar):
                binder = lams[-(node.db_index + 1)]
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
        self.stars = star_count(deriv)


@dataclass(slots=True, eq=False)
class SiamState(NodeState):
    node: Derivation
    tpath: tuple
    dir: str

    focus = property(lambda s: s.node.subject)  # the judgement's subject


def resolve_tpath(ty, tpath):
    """The type that ``tpath`` leads to in ``ty``; None when it leads out of ``ty``."""
    for step in tpath:
        if isinstance(ty, Star) or step > len(ty.domain):
            return None
        ty = ty.target if step == TARGET else ty.domain[step - 1]
    return ty


def tpath_str(tpath) -> str:
    return "/".join("T" if s == TARGET else f"E{s}" for s in tpath) or "·"


def initial(index: DerivationIndex) -> SiamState:
    if not isinstance(index.deriv.rh_type, Star):
        raise NotStarDerivationError("the machine starts on a derivation of type ★")
    return SiamState(index.deriv, (), TO_LEAVES)


class NotStarDerivationError(Exception):
    pass


def step(index: DerivationIndex, s: SiamState):
    n = s.node
    if s.dir == TO_LEAVES:
        if isinstance(n, DApp):
            return Next("p1", SiamState(n.left, (TARGET,) + s.tpath, TO_LEAVES))
        if isinstance(n, DLam):
            if s.tpath and s.tpath[0] == TARGET:
                return Next("p2", SiamState(n.body, s.tpath[1:], TO_LEAVES))
            if s.tpath:
                i = s.tpath[0]
                axiom = index.axioms[n][i - 1]
                return Next("bt2", SiamState(axiom, s.tpath[1:], TO_ROOT))
            return Stuck("leafward state at an abstraction with an empty type path")
        if isinstance(n, DVar):
            binder, i = index.binder[n]
            return Next("var", SiamState(binder, (i,) + s.tpath, TO_ROOT))
        if s.tpath:
            return Stuck("star abstraction with a non-empty type path")
        return FINAL
    info = index.parent.get(n)
    if info is None:
        return Stuck("rootward state at the final judgement")
    parent, (slot, i) = info
    if slot == "body":
        return Next("p4", SiamState(parent, (TARGET,) + s.tpath, TO_ROOT))
    if slot == "left":
        if s.tpath and s.tpath[0] == TARGET:
            return Next("p3", SiamState(parent, s.tpath[1:], TO_ROOT))
        if s.tpath:
            j = s.tpath[0]
            return Next("arg", SiamState(parent.rights[j - 1], s.tpath[1:], TO_LEAVES))
        return Stuck("rootward state at a left premise with an empty type path")
    return Next("bt1", SiamState(parent.left, (i,) + s.tpath, TO_LEAVES))


def step_back(index: DerivationIndex, s: SiamState):
    """Inverse transition: the dual of the step from the flipped state; None
    exactly on the initial state."""
    r = step(index, SiamState(s.node, s.tpath, FLIP[s.dir]))
    if not isinstance(r, Next):
        return None
    b = r.state
    return DUAL[r.label], SiamState(b.node, b.tpath, FLIP[b.dir])


def observable(s: SiamState):
    """Project to the focused term node and the term-side direction."""
    return s.focus, ("down" if s.dir == TO_LEAVES else "up")


def snapshot(index: DerivationIndex, s: SiamState, enc) -> str:
    """The state is a place in the derivation: no items for ``enc`` to write."""
    return f'{{"node": {index.ordinal[s.node]}, "tpath": {json_text(tpath_str(s.tpath))}}}'


def check_invariants(index: DerivationIndex, label, s: SiamState, per_label: dict, ctx: dict):
    """The type path isolates a ★, and the machine is bi-deterministic: the
    inverse step from each reached state gives back the transition and the
    occurrence and direction of the state before it."""
    ty = resolve_tpath(s.node.rh_type, s.tpath)
    assert isinstance(ty, Star), "type path does not isolate a ★ occurrence"
    if label is not None:
        back = step_back(index, s)
        assert back is not None, "reached state has no predecessor"
        blabel, bstate = back
        prev = ctx["prev"]
        assert (blabel == label and bstate.node is prev.node and bstate.tpath == prev.tpath
                and bstate.dir == prev.dir), "inverse step disagrees"
    ctx["prev"] = s


@dataclass
class CoverageReport:
    stars: int
    visited: int
    repeated: int
    length: int

    @property
    def hamiltonian(self) -> bool:
        return self.repeated == 0 and self.visited == self.stars


def run(deriv: Derivation, subject: Term, fuel: int = DEFAULT_FUEL, sink: Optional[Callable] = None,
        allow_fuel: bool = False):
    """Run to the final judgement; returns ``(RunReport, CoverageReport)``."""
    index = DerivationIndex(deriv, subject)
    seen: set = set()
    repeated = 0

    def visit(s, per_label):
        nonlocal repeated
        occ = (s.node, s.tpath)  # judgements hash by identity
        repeated += occ in seen
        seen.add(occ)

    report = reporting.run(MACHINE, index, fuel, sink, allow_fuel=allow_fuel, check=visit)
    return report, CoverageReport(index.stars, len(seen), repeated, report.length)


NO_TOKEN = (0, 0, 0)


def state_footprint(s: SiamState, reach) -> tuple:
    return NO_TOKEN  # the state is a position in the derivation: no token


MACHINE = Machine(
    "siam", initial, lambda: step, snapshot, state_footprint,
    # on the term's ★ derivation; Diverged when it has none within fuel
    launch=lambda term, fuel, **kw: run(mt.infer_star_derivation(term, fuel), term, fuel, **kw)[0],
    dir=lambda s: observable(s)[1],
    invariants=check_invariants,
)
