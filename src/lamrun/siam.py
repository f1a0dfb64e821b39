"""Sequence-type interaction machine: walks a fixed ``t : ★`` derivation.

A state is a judgement occurrence, the number of one ★ occurrence in its
right-hand type counted from the left, and a direction: ``up`` moves toward
the premises, ``down`` toward the conclusion.  The type path to that ★ is
decoded only where a trace prints it.  Derivations are upside-down with
respect to terms, so ``up`` here corresponds to the interaction machine's
down phase.  The run is a Hamiltonian path over ★ occurrences: single
initial state, bi-determinism, and acyclicity leave no other option.

A transition follows the links that ``DerivationIndex`` sets on each judgement,
and moves a ★ number into or out of an arrow's entry by an offset read from its
cached ``starts`` (``push``, ``pop``): it reads no dict and never counts ★s.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

from . import multitypes as mt, reporting
from .multitypes import DApp, DLam, DVar, Derivation, DerivationIndex, Star
from .reporting import FINAL, FLIP, Machine, NodeState, Stuck, step_back
from .syntax import DEFAULT_FUEL, Term
from .tokens import json_text

TO_LEAVES = "up"
TO_ROOT = "down"

TARGET = 0  # type-path step into an arrow target; positive i enters domain entry i


@dataclass(slots=True, eq=False)
class SiamState(NodeState):
    node: Derivation
    star: int  # the ★'s number in ``node.rh_type``
    dir: str

    focus = property(lambda s: s.node.subject)  # the judgement's subject
    # the state with its direction flipped, for ``reporting.step_back``
    flip = lambda s: SiamState(s.node, s.star, FLIP[s.dir])  # noqa: E731


def push(ty, step, k: int) -> int:
    """The number in ``ty`` of ★ ``k`` of the entry that ``step`` enters."""
    return ty.starts[step - 1] + k  # TARGET reads the last entry, the target's offset


def pop(ty, k: int) -> tuple:
    """The step into the entry of the arrow ``ty`` holding its ★ ``k``, and ``k`` there."""
    starts = ty.starts
    offset = starts[-1]
    if k >= offset:
        return TARGET, k - offset
    i = bisect_right(starts, k)
    return i, k - starts[i - 1]


def tpath_str(ty, k: int) -> str:
    """The type path to ★ ``k`` of ``ty``, written for a trace."""
    steps = []
    while not isinstance(ty, Star):
        step, k = pop(ty, k)
        steps.append("T" if step == TARGET else f"E{step}")
        ty = ty.target if step == TARGET else ty.domain[step - 1]
    return "/".join(steps) or "·"


def initial(index: DerivationIndex) -> SiamState:
    if not isinstance(index.deriv.rh_type, Star):
        raise NotStarDerivationError("the machine starts on a derivation of type ★")
    return SiamState(index.deriv, 0, TO_LEAVES)


class NotStarDerivationError(Exception):
    pass


def step(index: DerivationIndex, s: SiamState):
    # ``type(n) is`` in place of ``isinstance`` (no judgement class is
    # subclassed) saves about 2 % of a step on t_14
    n = s.node
    if s.dir == TO_LEAVES:
        if type(n) is DApp:
            return ("p1", SiamState(n.left, push(n.left.rh_type, TARGET, s.star), TO_LEAVES), 1)
        if type(n) is DLam:
            i, k = pop(n.rh_type, s.star)
            if i == TARGET:
                return ("p2", SiamState(n.body, k, TO_LEAVES), 1)
            return ("bt2", SiamState(n.axioms[i - 1], k, TO_ROOT), 1)
        if type(n) is DVar:
            return ("var", SiamState(n.binder, push(n.binder.rh_type, n.place, s.star), TO_ROOT), 1)
        if s.star:
            return Stuck("star abstraction with a ★ number other than 0")
        return FINAL
    parent, slot = n.parent, n.slot
    if parent is None:
        return Stuck("rootward state at the final judgement")
    if slot == "body":
        return ("p4", SiamState(parent, push(parent.rh_type, TARGET, s.star), TO_ROOT), 1)
    if slot == "left":
        j, k = pop(n.rh_type, s.star)
        if j == TARGET:
            return ("p3", SiamState(parent, k, TO_ROOT), 1)
        return ("arg", SiamState(parent.rights[j - 1], k, TO_LEAVES), 1)
    return ("bt1", SiamState(parent.left, push(parent.left.rh_type, slot, s.star), TO_LEAVES), 1)


def observable(s: SiamState):
    """Project to the focused term node and the term-side direction."""
    return s.focus, ("down" if s.dir == TO_LEAVES else "up")


def snapshot(index: DerivationIndex, s: SiamState, enc) -> str:
    """The state is a place in the derivation: no items for ``enc`` to write."""
    tpath = json_text(tpath_str(s.node.rh_type, s.star))
    return f'{{"node": {s.node.ordinal}, "tpath": {tpath}}}'


def check_invariants(index: DerivationIndex, label, s: SiamState, per_label: dict, ctx: dict):
    """The ★ number names a ★ of the type, and the machine is bi-deterministic:
    the inverse step from each reached state gives back the transition and the
    occurrence and direction of the state before it."""
    assert 0 <= s.star < s.node.rh_type.stars, "★ number outside the type's ★s"
    if label is not None:
        back = step_back(step, index, s)
        assert back is not None, "reached state has no predecessor"
        blabel, bstate = back
        prev = ctx["prev"]
        assert (blabel == label and bstate.node is prev.node and bstate.star == prev.star
                and bstate.dir == prev.dir), "inverse step disagrees"
    ctx["prev"] = s


@dataclass
class CoverageReport:
    stars: int
    visited: int  # distinct (judgement, ★ number) occurrences reached
    length: int

    repeated = property(lambda c: c.length + 1 - c.visited)  # of the states reached, repeats

    @property
    def hamiltonian(self) -> bool:
        return self.repeated == 0 and self.visited == self.stars


def run(deriv: Derivation, subject: Term, fuel: int = DEFAULT_FUEL,
        sink: Optional[Callable] = None):
    """Run to the final judgement or out of fuel; returns ``(RunReport, CoverageReport)``."""
    return run_index(DerivationIndex(deriv, subject), fuel, sink)


def run_index(index: DerivationIndex, fuel: int = DEFAULT_FUEL, sink=None):
    """``run`` on a derivation that the caller has indexed.

    The walk marks the coverage as it passes each state on to ``drive``: the
    index numbers the ★s of all the judgements from the left, in preorder, so a
    reached state is the ★ ``node.first + star``.  The marks are one byte per ★
    while the ★s number at most 64 times the fuel + 1 states a walk can reach;
    past that (``t_n`` has 2^(n+1) − 3 ★s) they are a dict of the ★s reached,
    about 70 B each.  Either way the coverage is O(fuel) bytes."""
    stars = index.stars
    seen = bytearray(stars) if stars <= 64 * (fuel + 1) else {}

    def covered(walk):
        for record in walk:
            seen[record[1].node.first + record[1].star] = 1
            yield record

    walk = covered(reporting.trajectory(MACHINE, index, fuel))
    report = reporting.drive(MACHINE.name, index, walk, MACHINE, snapshot, None, sink)
    visited = len(seen) if type(seen) is dict else stars - seen.count(0)
    return report, CoverageReport(stars, visited, report.length)


MACHINE = Machine(
    "siam", initial, lambda: step, snapshot, None,  # a place in the derivation: no token
    # on the term's ★ derivation; Diverged when it has none within fuel
    launch=lambda term, fuel, **kw: run(mt.infer_star_derivation(term, fuel), term, fuel, **kw)[0],
    dir=lambda s: observable(s)[1],
    invariants=check_invariants,
)
