"""Trace events, run reports, and the one run loop: ``trajectory`` steps a machine
and yields each transition as a ``(label, state, cost)`` tuple, ``drive`` folds
such a walk into a ``RunReport``, and the lockstep and invariant checkers consume
walks directly."""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from .syntax import DEFAULT_FUEL, path_str, pretty
from .tokens import Encoder, Reach, json_text


@dataclass(frozen=True)
class Final:
    pass


@dataclass(frozen=True)
class Stuck:
    reason: str


FINAL = Final()


class StuckError(Exception):
    pass


class FuelExhausted(Exception):
    def __init__(self, fuel: int):
        super().__init__(f"machine did not reach a final state within {fuel} steps")
        self.fuel = fuel


@dataclass(frozen=True)
class Machine:
    """One machine as the run loop (``trajectory``), ``drive`` and the registries see it.

    ``step`` returns the step function as its module binds it when a run
    starts, and ``launch`` calls the module's ``run``: a profiler that
    rebinds those module attributes sees every call.
    """

    name: str
    initial: Callable  # index -> state
    step: Callable  # () -> ((index, state) -> (label, state, cost) | Final | Stuck)
    snapshot: Callable  # (index, state, Encoder) -> the token's JSON text
    # (state, Reach) -> (lp, markers, cells); a machine whose token never
    # shares a cell counts its cells in its states and may ignore the Reach.
    # None for a machine with no token (the SIAM): its runs are never sampled
    footprint: Optional[Callable]
    launch: Callable  # (term, fuel, **run options) -> RunReport
    # (index, label, state, labels, ctx); asserts.  ``label`` is the transition
    # that reached ``state``, None at the initial state
    invariants: Callable
    dir: Callable = attrgetter("dir")
    var_labels: tuple = ("var",)
    up_labels: tuple = ()  # when given, reports carry their count as upLength


# A reversible machine (IAM, SIAM) steps back by duality (Danos & Regnier,
# TCS 1999): a state's predecessor is its own successor once the direction is
# flipped, reached by the dual transition, with the direction flipped back.
# ``step_back`` does this for both: a state's ``flip()`` is the state with its
# ``dir`` flipped, built by one constructor call (a quarter of what
# ``dataclasses.replace`` costs).
DUAL = {"p1": "p3", "p3": "p1", "p2": "p4", "p4": "p2",
        "var": "bt2", "bt2": "var", "arg": "bt1", "bt1": "arg"}
FLIP = {"down": "up", "up": "down"}


def step_back(step: Callable, index, s):
    """The inverse transition of a reversible machine's ``step``: the dual
    label and the state before ``s``; None exactly on the initial state."""
    r = step(index, s.flip())
    if type(r) is not tuple:
        return None
    label, state, _ = r
    return DUAL[label], state.flip()


class NodeState:
    """Base of the machines' states: ``focus`` is the term node a state is at,
    a token machine's ``node``, and ``pos`` is its path.  States are slotted
    and immutable by convention, as token cells and items are: a step builds
    a new state and never assigns a field of one."""

    __slots__ = ()
    focus = property(attrgetter("node"))
    pos = property(lambda s: s.focus.path)


@dataclass(frozen=True)
class TraceEvent:
    step: int
    machine: str
    label: str
    dir: str
    node: object  # the focused term node
    subterm_path: str
    subterm_pretty: str
    token_json: str  # in the shared form of ``tokens.Encoder``, or unfolded
    cost: int
    footprint: tuple  # (lp, markers, cells)
    defs: tuple = ()  # the JSON texts of the items this event defines, children first

    def to_line(self) -> str:
        """The event as one line of a JSONL trace; its definitions, if any,
        come just before the token that refers to them."""
        lp, markers, cells = self.footprint
        defs = f'"defs": [{", ".join(self.defs)}], ' if self.defs else ""
        return (f'{{"step": {self.step}, "machine": {json_text(self.machine)}, '
                f'"label": {json_text(self.label)}, "dir": {json_text(self.dir)}, '
                f'"path": {json_text(self.subterm_path)}, '
                f'"subterm": {json_text(self.subterm_pretty)}, {defs}"token": {self.token_json}, '
                f'"cost": {self.cost}, "footprint": {{"lp": {lp}, '
                f'"markers": {markers}, "deepCells": {cells}}}}}')


def unfold(sink: Callable) -> Callable:
    """``sink``, marked as wanting each event's token unfolded: each item
    written in full wherever it occurs, and no ``defs``.  This is the form of
    ``--trace jsonl-unfolded`` and of the table's token column.  ``drive``
    reads the mark when it makes the run's encoder (see ``tokens.Encoder``)."""
    marked = lambda ev: sink(ev)  # noqa: E731
    marked.unfolded = True
    return marked


# the text form (see ``tokens.item``) of the IAM's and the JAM's logged positions
LOGGED_POSITION = '{"var": %s, "scope": %s, "flavor": %s, "log": %s}'


@dataclass(frozen=True)
class SpaceFootprint:
    lp_count: int
    marker_count: int
    deep_cells: int

    def to_json(self) -> dict:
        return {"lp": self.lp_count, "markers": self.marker_count, "deepCells": self.deep_cells}


@dataclass
class RunReport:
    machine: str
    term: object  # the root term; printed only by ``to_json``
    outcome: str  # "final" or "fuel"
    length: int
    per_label: dict
    var_cost_sum: int
    ram_cost_bound: int
    peak: SpaceFootprint
    peak_marker_lp: int
    beta_count: Optional[int] = None
    up_length: Optional[int] = None
    final_state: object = None

    def to_json(self, with_term: bool = True) -> dict:
        """The report as JSON; ``with_term=False`` leaves out the printed term."""
        out = {"machine": self.machine}
        if with_term:
            out["term"] = pretty(self.term)
        out.update({
            "outcome": self.outcome,
            "length": self.length,
            "perLabel": dict(self.per_label),
            "varCostSum": self.var_cost_sum,
            "ramCostBound": self.ram_cost_bound,
            "peakFootprint": self.peak.to_json(),
            "peakMarkerLp": self.peak_marker_lp,
        })
        if self.beta_count is not None:
            out["betaCount"] = self.beta_count
        if self.up_length is not None:
            out["upLength"] = self.up_length
        return out


def drive(
    name: str,
    index,
    walk,
    machine: Machine,
    snapshot_fn: Callable,
    footprint_fn: Optional[Callable],
    sink: Optional[Callable] = None,
):
    """Fold ``walk``, a ``trajectory`` of ``machine``, into a run report.

    ``machine`` gives the direction accessor, the variable labels and
    whether a footprint is sampled; its name and the snapshot and footprint
    functions come apart from it so that a profiler can wrap them.  ``walk``
    may wrap the trajectory to count more as it passes the states on, as
    ``siam.run_index`` counts coverage.
    Returns the report in all cases, a walk that runs out of fuel included:
    ``outcome`` is "fuel" then, and "final" when the walk reached a final
    state.  ``sink``, when given, is called with each state's ``TraceEvent``
    as soon as the state is reached, so a traced run holds no trace of its
    own; None means an untraced run.  Every state has a ``focus``, the term
    node it is at; an event keeps that node and prints its path and subterm.
    Its token comes through one ``tokens.Encoder`` per run, in the shared
    form unless the sink is marked by ``unfold``: a shared event carries the
    definitions of the items it is the first to refer to, and later events
    refer to them by id.  Whether the footprint is sampled is decided once
    per run, from ``machine.footprint``: a machine that declares none (the
    SIAM) has no token, and its events and peaks read zero.  Otherwise the
    footprint is sampled at every state, including the initial one, since
    peaks occur mid-run: ``footprint_fn(state, reach)`` gets one
    ``tokens.Reach`` per run, which it moves from state to state, and returns
    the counts ``(lp, markers, cells)``.  A machine whose token never shares
    a cell, such as the IAM, may ignore the ``Reach``: its states count their
    token's cells as it steps.
    """
    state_dir_fn, var_labels = machine.dir, machine.var_labels
    sample = machine.footprint is not None
    per_label: dict = {}
    enc = None if sink is None else Encoder(getattr(sink, "unfolded", False))
    places: dict = {}  # focused node -> (path text, subterm text)
    reach = Reach()
    fp = (0, 0, 0)  # an unsampled state's
    var_cost = steps = peak_lp = peak_cells = 0
    peak_markers = peak_marker_lp = 0  # the most markers, then the most lp among them
    outcome = "final"
    try:
        for label, state, cost in walk:
            if label is not None:
                steps += 1
                per_label[label] = per_label.get(label, 0) + 1
                if label in var_labels:
                    var_cost += cost
            if sample:
                lp, markers, cells = fp = footprint_fn(state, reach)
                if lp > peak_lp:
                    peak_lp = lp
                if cells > peak_cells:
                    peak_cells = cells
                if markers > peak_markers or markers == peak_markers and lp > peak_marker_lp:
                    peak_markers, peak_marker_lp = markers, lp
            if sink is not None:
                node = state.focus
                place = places.get(node)
                if place is None:
                    place = places[node] = (path_str(node.path), pretty(node.term))
                token = snapshot_fn(index, state, enc)
                sink(TraceEvent(steps, name, label or "init", state_dir_fn(state), node,
                                *place, token, cost, fp, enc.take_defs()))
    except FuelExhausted:
        outcome = "fuel"

    var_count = sum(per_label.get(lbl, 0) for lbl in var_labels)
    return RunReport(
        machine=name,
        term=index.root,
        outcome=outcome,
        length=steps,
        per_label=per_label,
        var_cost_sum=var_cost,
        ram_cost_bound=(steps - var_count) + var_count * index.size,
        peak=SpaceFootprint(peak_lp, peak_markers, peak_cells),
        peak_marker_lp=peak_marker_lp,
        final_state=state,
    )


def run(machine: Machine, index, fuel: int = DEFAULT_FUEL, sink: Optional[Callable] = None):
    """Run ``machine`` on ``index`` to a final state or until ``fuel`` steps;
    returns the report, whose ``outcome`` says which ("final" or "fuel").

    ``sink``, when given, takes each ``TraceEvent`` as ``drive`` makes it.
    """
    report = drive(machine.name, index, trajectory(machine, index, fuel), machine,
                   machine.snapshot, machine.footprint, sink)
    if machine.up_labels:
        report.up_length = sum(report.per_label.get(lbl, 0) for lbl in machine.up_labels)
    return report


def trajectory(machine: Machine, index, fuel: int = DEFAULT_FUEL):
    """Step ``machine`` on ``index``: the one run loop.

    Yields each transition as a ``(label, state, cost)`` tuple, starting with
    ``(None, initial, 0)``, and ends at a final state.  Raises StuckError
    on a stuck state, FuelExhausted when ``fuel`` steps do not reach a final
    state; in both cases after yielding the last state reached.
    """
    step = machine.step()
    result = (None, machine.initial(index), 0)
    steps = 0
    while True:
        yield result
        result = step(index, result[1])
        if type(result) is not tuple:  # FINAL or Stuck
            if isinstance(result, Stuck):
                raise StuckError(f"{machine.name} stuck: {result.reason}")
            return
        if steps >= fuel:
            raise FuelExhausted(fuel)
        steps += 1
