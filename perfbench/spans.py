"""Span recorder for the traced run.

The recorder wraps public functions of ``lamrun`` by rebinding module and
class attributes, so the program itself is not changed.  Every call of a
wrapped function is a span with a name, start, end and parent.  Spans of the
coarse layers (machine runs, checkers, derivations, CLI calls, the benchmark's
own operations) are kept one by one; the fine, per-transition ones (steps,
footprints, snapshots, history lookups) are only summed, since a single run
makes hundreds of thousands of them.  A span's self time is its duration
minus the time its child spans cover.
"""
from __future__ import annotations

from time import perf_counter
from typing import Callable

# drive() machine name -> layer name used in the metrics
MACHINE_LAYER = {
    "iam": "liam",
    "jam": "ljam",
    "pam": "lpam",
    "kam": "kam",
    "ham-j": "ham.j",
    "ham-k": "ham.k",
    "siam": "siam",
}
LAYERS = tuple(MACHINE_LAYER.values())
TOKEN_LAYERS = LAYERS[:-1]  # the machines with a state_footprint

# names whose spans are kept one by one; others are only summed
KEPT = (
    {f"{layer}.run" for layer in LAYERS}
    | {"bench.op", "cli.main", "harness.compare", "multitypes.infer",
       "siam.index", "syntax.index", "syntax.parse"}
    | {f"equivalence.{c}" for c in
       ("iam_jam", "jam_pam", "ham_jk", "weights", "invariants", "quadratic")}
)


class Recorder:
    """Spans kept in memory; written out by :meth:`dump` when the run ends."""

    def __init__(self):
        self.stack: list = []  # frames: [name, start, child seconds, span id, parent id]
        self.totals: dict = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict = {}
        self.spans: list = []  # (id, name, start, end, parent id)
        self._next_id = 1

    def enter(self, name: str) -> None:
        parent = self.stack[-1][3] if self.stack else 0
        if name in KEPT:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent
        self.stack.append([name, perf_counter(), 0.0, span_id, parent])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, span_id, parent = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if span_id != parent:
            self.spans.append((span_id, name, start, end, parent))

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def paused(self, fn: Callable, *args):
        """Run ``fn`` with the clock of every open span stopped (bookkeeping)."""
        started = perf_counter()
        try:
            return fn(*args)
        finally:
            gap = perf_counter() - started
            for frame in self.stack:
                frame[1] += gap

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for (i, n, s, e, p) in self.spans
            ],
            "totals": {
                name: {"calls": c, "seconds": t, "self_seconds": st}
                for name, (c, t, st) in sorted(self.totals.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    enter, leave = rec.enter, rec.exit

    def traced(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return traced


class Patches:
    """Attribute rebindings, undone in reverse order by :meth:`restore`."""

    def __init__(self, modules):
        self.modules = modules  # every imported lamrun module
        self.saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, value) -> None:
        """Rebind every module attribute that holds ``original`` (``from x import y`` too)."""
        for module in self.modules:
            for attr, held in list(vars(module).items()):
                if held is original:
                    self.set(module, attr, value)

    def restore(self) -> None:
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


def install(rec: Recorder, lam) -> Patches:
    """Wrap the public functions of every layer; returns the patches to restore."""
    p = Patches(lam.modules)
    wrap = lambda name, fn: _wrap(rec, name, fn)  # noqa: E731
    syn, mt = lam.syntax, lam.multitypes

    p.everywhere(syn.parse, wrap("syntax.parse", syn.parse))
    p.everywhere(syn.pretty, wrap("syntax.pretty", syn.pretty))
    p.everywhere(syn.whnf_trace, wrap("syntax.whnf", syn.whnf_trace))
    p.everywhere(syn.TermIndex, _traced_class(rec, "syntax.index", syn.TermIndex))
    p.set(lam.siam, "DerivationIndex",
          _traced_class(rec, "siam.index", lam.siam.DerivationIndex))

    for module, layer in ((lam.liam, "liam"), (lam.ljam, "ljam"), (lam.lpam, "lpam"),
                          (lam.kam, "kam"), (lam.siam, "siam")):
        p.set(module, "step", wrap(f"{layer}.step", module.step))
        p.set(module, "run", _traced_run(rec, layer, module.run))
    p.set(lam.ham, "step_mode", _traced_step_mode(rec, lam.ham.step_mode))
    p.set(lam.ham, "run", _traced_ham_run(rec, lam.ham.run))
    p.everywhere(lam.reporting.drive, _traced_drive(rec, lam.reporting.drive))
    p.set(lam.lpam.History, "entry", wrap("lpam.history_entry", lam.lpam.History.entry))

    infer = mt.infer_star_derivation

    def traced_infer(*args, **kwargs):
        rec.enter("multitypes.infer")
        try:
            deriv = infer(*args, **kwargs)
        finally:
            rec.exit()
        rec.paused(lambda: rec.count("multitypes.judgements",
                                     sum(1 for _ in mt.iter_nodes(deriv))))
        return deriv

    p.set(mt, "infer_star_derivation", traced_infer)
    for fn in (mt.weight_kam, mt.weight_iam, mt.star_count):
        p.everywhere(fn, wrap("multitypes.weights", fn))

    eq = lam.equivalence
    for attr, name in (("check_iam_jam", "iam_jam"), ("check_jam_pam", "jam_pam"),
                       ("check_ham_jk", "ham_jk"), ("check_weights", "weights"),
                       ("check_invariants_suite", "invariants"),
                       ("check_quadratic_bound", "quadratic")):
        p.set(eq, attr, wrap(f"equivalence.{name}", getattr(eq, attr)))
    p.set(lam.harness, "compare", wrap("harness.compare", lam.harness.compare))
    p.set(lam.cli, "main", wrap("cli.main", lam.cli.main))
    return p


def _traced_class(rec: Recorder, name: str, base: type) -> type:
    """Subclass whose construction is a span; ``isinstance`` checks keep working."""

    def __init__(self, *args, **kwargs):
        rec.enter(name)
        try:
            base.__init__(self, *args, **kwargs)
        finally:
            rec.exit()

    namespace = {"__init__": __init__}
    if "__slots__" in vars(base):
        namespace["__slots__"] = ()
    return type(base.__name__, (base,), namespace)


def _count_report(rec: Recorder, layer: str, report) -> None:
    rec.count(f"{layer}.steps", report.length)
    rec.count(f"{layer}.ram_cost_bound", report.ram_cost_bound)


def _traced_run(rec: Recorder, layer: str, run: Callable) -> Callable:
    def traced(*args, **kwargs):
        rec.enter(f"{layer}.run")
        try:
            out = run(*args, **kwargs)
        finally:
            rec.exit()
        _count_report(rec, layer, out[0] if isinstance(out, tuple) else out)
        return out

    return traced


def _traced_ham_run(rec: Recorder, run: Callable) -> Callable:
    def traced(term_or_index, mode, *args, **kwargs):
        layer = f"ham.{mode}"
        rec.enter(f"{layer}.run")
        try:
            out = run(term_or_index, mode, *args, **kwargs)
        finally:
            rec.exit()
        _count_report(rec, layer, out)
        return out

    return traced


def _traced_step_mode(rec: Recorder, step_mode: Callable) -> Callable:
    names = {"j": "ham.j.step", "k": "ham.k.step"}
    enter, leave = rec.enter, rec.exit

    def traced(index, state, mode):
        enter(names[mode])
        try:
            return step_mode(index, state, mode)
        finally:
            leave()

    return traced


def _traced_drive(rec: Recorder, drive: Callable) -> Callable:
    """The run loop; its snapshot and footprint callbacks become spans of the machine."""

    def traced(machine, index, state, step_fn, snapshot_fn, footprint_fn, *args, **kwargs):
        layer = MACHINE_LAYER[machine]
        snapshot_fn = _wrap(rec, f"{layer}.snapshot", snapshot_fn)
        footprint_fn = _wrap(rec, f"{layer}.footprint", footprint_fn)
        rec.enter("reporting.drive")
        try:
            return drive(machine, index, state, step_fn, snapshot_fn, footprint_fn,
                         *args, **kwargs)
        finally:
            rec.exit()

    return traced


def layer_metrics(rec: Recorder, rounds: int) -> dict:
    """Per-layer figures of the traced window, per round (``rounds`` traced rounds)."""
    per = lambda x: x / rounds  # noqa: E731
    s = lambda name: per(rec.seconds(name))  # noqa: E731
    out = {
        "syntax.parse_s": (s("syntax.parse"), "s"),
        "syntax.index_s": (s("syntax.index"), "s"),
        "syntax.whnf_s": (s("syntax.whnf"), "s"),
        "syntax.pretty_s": (s("syntax.pretty"), "s"),
        "tokens.footprint_s": (sum(s(f"{m}.footprint") for m in TOKEN_LAYERS), "s"),
        "tokens.footprint_calls": (per(sum(rec.calls(f"{m}.footprint") for m in TOKEN_LAYERS)),
                                   "count"),
        "reporting.drive_self_s": (per(rec.self_seconds("reporting.drive")), "s"),
    }
    for m in LAYERS:
        steps = rec.calls(f"{m}.step")
        out[f"{m}.steps"] = (per(rec.counts.get(f"{m}.steps", 0)), "count")
        out[f"{m}.ram_cost_bound"] = (per(rec.counts.get(f"{m}.ram_cost_bound", 0)), "count")
        out[f"{m}.step_s"] = (s(f"{m}.step"), "s")
        out[f"{m}.footprint_s"] = (s(f"{m}.footprint"), "s")
        out[f"{m}.snapshot_s"] = (s(f"{m}.snapshot"), "s")
        out[f"{m}.ns_per_step"] = (rec.seconds(f"{m}.step") / steps * 1e9 if steps else 0.0,
                                   "ns")
    out.update({
        "lpam.history_entry_s": (s("lpam.history_entry"), "s"),
        "lpam.history_entry_calls": (per(rec.calls("lpam.history_entry")), "count"),
        "multitypes.infer_s": (s("multitypes.infer"), "s"),
        "multitypes.weights_s": (s("multitypes.weights"), "s"),
        "multitypes.judgements": (per(rec.counts.get("multitypes.judgements", 0)), "count"),
        "siam.index_s": (s("siam.index"), "s"),
        "harness.compare_s": (s("harness.compare"), "s"),
        "cli.run_self_s": (per(rec.self_seconds("cli.main")), "s"),
    })
    for c in ("iam_jam", "jam_pam", "ham_jk", "weights", "invariants", "quadratic"):
        out[f"equivalence.{c}_s"] = (s(f"equivalence.{c}"), "s")
    return out
