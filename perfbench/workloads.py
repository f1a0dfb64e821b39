"""The four workloads: their inputs, one round of timed operations, and the checks.

A round is a fixed list of operations, the same in every round of every run,
so that the share of failed operations does not depend on the seed or on how
long the run is.  Every operation is one timed call into ``lamrun``; the
checks against the reference reducer run between operations, outside the
timed calls.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import refeval as ref

MACHINES = ("iam", "jam", "pam", "kam", "ham-j", "ham-k")  # harness.run_machine names
ALL_MACHINES = MACHINES + ("siam",)

TN_MEMBERS = tuple(range(1, 13)) + (14,)
DEEP_CHURCH = (30, 150)
DEEP_RKH = (30, 120)
DEEP_CHAIN = (30, 150)
FAILING_CHAIN_DEPTH = 10_000  # deeper than the recursive-descent parser can go
CORPUS_MAX_SIZE = 24
CORPUS_BETA = range(1, 13)  # reference reduction lengths, one stratum each
CORPUS_PER_BETA = 25
CORPUS_MAX_GROWTH = 80  # nodes an intermediate term may reach in the filter
TRACE_TN = 10


@dataclass
class Case:
    """One input: its text, the program's parse of it and the reference reduct."""
    label: str
    text: str
    term: object
    shape: tuple  # reference term, untagged
    whnf: ref.Whnf
    family: tuple = ()


@dataclass
class Inputs:
    cases: list
    extra: dict = field(default_factory=dict)


CAL_LOOPS = 2000
CAL_ALLOCS = 700
CAL_REFERENCE_S = 0.0005  # the calibration loop's time at the reference speed


def calibrate() -> float:
    """Time a fixed piece of interpreter work: dict reads and stores, and short-lived strings.

    The shared machines this benchmark runs on change speed by a third within
    seconds.  Dividing each operation's time by this time, taken just before
    and after it, removes most of that (see README.md).  Nothing allocated
    here is tracked by the garbage collector: collections set off by the
    calibration would make it noisy and move the program's own collections.
    """
    table = dict.fromkeys(range(256), 1)
    x = n = 0
    started = perf_counter()
    for i in range(CAL_LOOPS):
        x = table[(x + i) & 255]
        table[i & 255] = (x ^ i) & 1023
    for i in range(CAL_ALLOCS):
        n += len(str(i * 123456789123) + "/Fun/Arg")
    return perf_counter() - started


class Tally:
    """One round's operations; every program call goes through :meth:`call`.

    Each operation has a key ``(input label, operation)`` that is the same in
    every round, so the runner can take each operation's median over rounds.
    Times are scaled to the reference speed of :func:`calibrate`.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.failed = 0
        self.seconds: dict = {}  # key -> time of the call at the reference speed
        self.raw_seconds: dict = {}  # key -> wall time of the call
        self.machine_s: dict = {}  # key -> machine run time inside the call
        self.steps: dict = {}  # key -> machine transitions made by the call
        self.types: set = set()  # keys of derivation-and-weights calls
        self.trace_events = 0
        self.trace_bytes = 0
        self.problems: list = []

    def call(self, key: tuple, fn, *args, fails=(), **kwargs):
        """Time one operation; an exception in ``fails`` counts it as failed."""
        rec = self.recorder
        before = calibrate()
        if rec is not None:
            rec.enter("bench.op")
        started = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except fails as exc:
            out = exc
            self.failed += 1
        finally:
            elapsed = perf_counter() - started
            if rec is not None:
                rec.exit()
            self.raw_seconds[key] = elapsed
            self.seconds[key] = elapsed * 2 * CAL_REFERENCE_S / (before + calibrate())
        return out

    def machine(self, key: tuple, steps: int, seconds: Optional[float] = None) -> None:
        """Record that the call ``key`` made ``steps`` transitions, in ``seconds`` of its wall time
        (default: all of it)."""
        self.steps[key] = steps
        share = 1.0 if seconds is None else seconds / self.raw_seconds[key]
        self.machine_s[key] = self.seconds[key] * share

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _case(lam, label: str, shape: tuple, namer: ref.Namer, family: tuple = (),
          whnf: Optional[ref.Whnf] = None) -> Case:
    text = ref.to_text(shape, namer)
    return Case(label, text, lam.syntax.parse(text), shape,
                whnf or ref.whnf(ref.tag(shape)), family)


def _quiet(fn, *args):
    """Call ``fn`` with its standard output captured; returns (result, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out = fn(*args)
    return out, buf.getvalue()


# ---------------------------------------------------------------------------
# Operations shared by tn and deep


def _types(lam, term):
    mt = lam.multitypes
    deriv = mt.infer_star_derivation(term)
    return deriv, mt.weight_kam(deriv), mt.weight_iam(deriv), mt.star_count(deriv)


def _machines_round(lam, inputs: Inputs, tally: Tally) -> None:
    """Each input through the six machines, its derivation and weights, and the SIAM walk."""
    for case in inputs.cases:
        reports = {}
        for m in MACHINES:
            key = (case.label, m)
            reports[m] = tally.call(key, lam.harness.run_machine, m, case.term)
            tally.machine(key, reports[m].length)
        key = (case.label, "types")
        deriv, w_kam, w_iam, stars = tally.call(key, _types, lam, case.term)
        tally.types.add(key)
        key = (case.label, "siam")
        reports["siam"], coverage = tally.call(key, lam.siam.run, deriv, case.term)
        tally.machine(key, reports["siam"].length)
        _check_runs(tally, case, reports, coverage, w_kam, w_iam, stars)


def _check_runs(tally: Tally, case: Case, reports: dict, coverage, w_kam, w_iam, stars):
    L = {m: r.length for m, r in reports.items()}
    ex = lambda ok, what: tally.expect(ok, f"{case.label}: {what}")  # noqa: E731
    ex(all(r.outcome == "final" for r in reports.values()), "a run did not finish")
    ex(reports["kam"].per_label.get("abs", 0) == case.whnf.beta,
       f"KAM abs steps {reports['kam'].per_label.get('abs', 0)} != reference β {case.whnf.beta}")
    head = case.whnf.head_path
    for m in MACHINES:
        ex(reports[m].final_state.pos == head, f"{m} ends at {reports[m].final_state.pos}")
    ex(reports["siam"].final_state.node.term_pos == head, "siam ends away from the head λ")
    ex(L["kam"] <= L["jam"] == L["pam"] <= L["iam"], f"length order fails: {L}")
    ex(L["jam"] == L["kam"] + reports["jam"].up_length, "|jam| != |kam| + upLength")
    ex(L["ham-j"] == L["jam"] and L["ham-k"] == L["kam"], "HAM lengths differ from JAM/KAM")
    ex(w_kam == L["kam"], f"w_kam {w_kam} != |kam| {L['kam']}")
    ex(w_iam == L["iam"] == L["siam"] == stars - 1,
       f"w_iam {w_iam}, |iam| {L['iam']}, |siam| {L['siam']}, stars {stars}")
    ex(coverage.hamiltonian, "SIAM coverage is not Hamiltonian")
    kind = case.family[:1]
    if kind == ("tn",):
        n = case.family[1]
        ex(L["iam"] == 2 ** (n + 1) - 4, "|iam| != 2^(n+1) - 4")
        ex(L["kam"] == 3 * (n - 1), "|kam| != 3(n-1)")
        ex(L["jam"] == (3 * n + 2) * (n - 1) // 2, "|jam| != (3n+2)(n-1)/2")
    elif kind == ("rkh",):
        _, k, h = case.family
        ex(reports["iam"].peak.marker_count == h + k, "IAM peak markers != h+k")
        ex(reports["jam"].peak.marker_count == max(h, k + 1), "JAM peak markers != max(h,k+1)")


# ---------------------------------------------------------------------------
# tn: left-nested identities


def build_tn(lam, seed: int) -> Inputs:
    namer = ref.Namer(random.Random(f"tn:{seed}"))
    return Inputs([_case(lam, f"t_{n}", ref.family_tn(n), namer, ("tn", n))
                   for n in TN_MEMBERS])


def verify_tn(lam, inputs: Inputs) -> list:
    return [c.label for c in inputs.cases
            if ref.from_program(lam.harness.family_tn(c.family[1])) != c.shape]


# ---------------------------------------------------------------------------
# deep: Church numerals, r(h,h), identity chains, and one parse that fails


def build_deep(lam, seed: int) -> Inputs:
    namer = ref.Namer(random.Random(f"deep:{seed}"))
    cases = []
    for n in DEEP_CHURCH:
        cases.append(_case(lam, f"c_{n} I I", ref.church(n), namer, ("church", n)))
    for h in DEEP_RKH:
        cases.append(_case(lam, f"r({h},{h})", ref.family_rkh(h, h), namer, ("rkh", h, h)))
    for d in DEEP_CHAIN:
        cases.append(_case(lam, f"chain_{d}", ref.identity_chain(d), namer, ("chain", d)))
    # the failing input is the same for every seed
    chain = ref.identity_chain(FAILING_CHAIN_DEPTH)
    text = ref.to_text(chain, ref.Namer(random.Random("deep:failing")))
    return Inputs(cases, {"failing": (text, ref.size(chain))})


def verify_deep(lam, inputs: Inputs) -> list:
    return [c.label for c in inputs.cases if c.family[0] == "rkh"
            and ref.from_program(lam.harness.family_rkh(*c.family[1:])) != c.shape]


def _deep_round(lam, inputs: Inputs, tally: Tally) -> None:
    _machines_round(lam, inputs, tally)
    text, size = inputs.extra["failing"]
    label = f"parse chain_{FAILING_CHAIN_DEPTH}"
    out = tally.call((label, "cli parse"), _quiet, lam.cli.main, ["parse", text],
                     fails=RecursionError)
    if not isinstance(out, RecursionError):
        code, printed = out
        tally.expect(code == 0 and f"size: {size}\n" in printed,
                     f"{label}: exit {code}, output does not give size {size}")


# ---------------------------------------------------------------------------
# corpus: random closed terms through every checker and a full comparison


def build_corpus(lam, seed: int) -> Inputs:
    """``CORPUS_PER_BETA`` terms for each reference reduction length in ``CORPUS_BETA``.

    Stratifying by the reference β count keeps the work of a corpus nearly
    the same from seed to seed: it predicts the cost of a term far better
    than its size does.
    """
    rng = random.Random(f"corpus:{seed}")
    namer = ref.Namer(random.Random(f"corpus-names:{seed}"))
    wanted = {b: CORPUS_PER_BETA for b in CORPUS_BETA}
    cases = []
    while any(wanted.values()):
        shape = ref.random_term(rng, CORPUS_MAX_SIZE)
        try:
            whnf = ref.whnf(ref.tag(shape), max(CORPUS_BETA), CORPUS_MAX_GROWTH)
        except ref.Budget:
            continue
        if wanted.get(whnf.beta):
            wanted[whnf.beta] -= 1
            cases.append(_case(lam, f"corpus_{len(cases)}", shape, namer, ("corpus",), whnf))
    return Inputs(cases)


def _check_suite(lam, term) -> list:
    eq = lam.equivalence
    return [eq.check_iam_jam(term), eq.check_jam_pam(term), eq.check_ham_jk(term),
            eq.check_weights(term), eq.check_invariants_suite(term),
            eq.check_quadratic_bound([term])]


def _corpus_round(lam, inputs: Inputs, tally: Tally) -> None:
    for case in inputs.cases:
        ex = lambda ok, what: tally.expect(ok, f"{case.label}: {what}")  # noqa: E731
        checks = tally.call((case.label, "checkers"), _check_suite, lam, case.term)
        for c in checks:
            ex(c.passed and not c.inconclusive, f"checker {c.name}: {c.to_json()}")
        key = (case.label, "compare")
        row = tally.call(key, lam.harness.compare, case.term,
                         machines=list(ALL_MACHINES), with_types=True)
        entries = row["machines"]
        # the machines' share of the comparison, as the program times it
        tally.machine(key, sum(e["length"] for e in entries.values()),
                      sum(e["wallMs"] for e in entries.values()) / 1000)
        key = (case.label, "types")
        _, w_kam, w_iam, stars = tally.call(key, _types, lam, case.term)
        tally.types.add(key)
        L = {m: e["length"] for m, e in entries.items()}
        ex(all(e["outcome"] == "final" for e in entries.values()), "a run did not finish")
        ex(entries["kam"]["perLabel"].get("abs", 0) == case.whnf.beta,
           "KAM abs steps differ from the reference β count")
        ex(L["kam"] <= L["jam"] == L["pam"] <= L["iam"], f"length order fails: {L}")
        ex(L["jam"] == L["kam"] + entries["jam"]["upLength"], "|jam| != |kam| + upLength")
        ex(L["ham-j"] == L["jam"] and L["ham-k"] == L["kam"], "HAM lengths differ")
        ex(row["weights"] == {"w_kam": w_kam, "w_iam": w_iam, "stars": stars},
           "compare weights differ from the derivation's")
        ex(w_kam == L["kam"] and w_iam == L["iam"] == L["siam"] == stars - 1,
           "weights do not predict the run lengths")


# ---------------------------------------------------------------------------
# trace: JSONL traces written by the CLI


def build_trace(lam, seed: int) -> Inputs:
    namer = ref.Namer(random.Random(f"trace:{seed}"))
    return Inputs([_case(lam, "two two I I", ref.two_two(), namer, ("twotwo",)),
                   _case(lam, f"t_{TRACE_TN}", ref.family_tn(TRACE_TN), namer,
                         ("tn", TRACE_TN))])


def _trace_round(lam, inputs: Inputs, tally: Tally, out_dir: str) -> None:
    two_two, tn = inputs.cases
    runs = [(two_two, m) for m in ALL_MACHINES] + [(tn, "iam")]
    checked = inputs.extra.setdefault("checked", {})
    lengths: dict = {}
    for case, m in runs:
        path = os.path.join(out_dir, f"trace-{m}.jsonl")
        argv = ["run", case.text, "--machine", m, "--trace", "jsonl", "--out", path]
        key = (f"{m} {case.label}", "cli run")
        code, _ = tally.call(key, _quiet, lam.cli.main, argv)
        tally.expect(code == 0, f"run {m} {case.label}: exit code {code}")
        size, digest = _digest(path)
        tally.trace_bytes += size
        # the program is deterministic: a trace equal to one already checked is correct
        seen = checked.get((m, case.label))
        if seen is not None and seen[0] == digest:
            report, events = seen[1:]
        else:
            report, events = _check_trace(tally, case, m, path)
            checked[(m, case.label)] = (digest, report, events)
        os.remove(path)
        tally.trace_events += events
        if report is not None:
            tally.machine(key, report["length"])
            if case is two_two:
                lengths[m] = report
    if len(lengths) == len(ALL_MACHINES):
        L = {m: r["length"] for m, r in lengths.items()}
        tally.expect(L["kam"] <= L["jam"] == L["pam"] <= L["iam"] == L["siam"],
                     f"two two I I: length order fails: {L}")
        tally.expect(L["jam"] == L["kam"] + lengths["jam"]["upLength"],
                     "two two I I: |jam| != |kam| + upLength")
        tally.expect(lengths["kam"]["perLabel"].get("abs", 0) == two_two.whnf.beta,
                     "two two I I: KAM abs steps differ from the reference β count")
    for case in inputs.cases:
        for flags in (["--weights"], ["--weights", "--print-derivation", "--json"]):
            key = (f"types {case.label}", "cli types " + " ".join(flags))
            code, printed = tally.call(key, _quiet, lam.cli.main, ["types", case.text, *flags])
            tally.types.add(key)
            _check_types(tally, key, code, printed, case, lengths)


def _check_types(tally: Tally, key: tuple, code: int, printed: str, case: Case, lengths: dict):
    """``lamrun types`` output: the weights predict the lengths of the traced runs."""
    lines = printed.splitlines()
    got = dict(line.split(": ", 1) for line in lines[:4])
    if case.family[:1] == ("tn",):
        n = case.family[1]
        want = {"w_kam": 3 * (n - 1), "w_iam": 2 ** (n + 1) - 4}
    elif len(lengths) == len(ALL_MACHINES):
        want = {"w_kam": lengths["kam"]["length"], "w_iam": lengths["iam"]["length"]}
    else:
        return  # the traced runs already failed their checks
    want = {"type": "★", **{k: str(v) for k, v in want.items()},
            "stars": str(int(want["w_iam"]) + 1)}
    tally.expect(code == 0 and got == want, f"{' '.join(key)}: {got} != {want}")
    if "--json" in key[1]:
        tally.expect(json.loads(lines[-1]).get("type") == "★",
                     f"{' '.join(key)}: the JSON derivation is not of type ★")


def _digest(path: str):
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        for line in fh:
            digest.update(line)
            size += len(line)
    return size, digest.digest()


def _check_trace(tally: Tally, case: Case, machine: str, path: str):
    """Check one JSONL trace, a line at a time; returns its report line and event count.

    Reading line by line keeps the check's memory far below the program's, so
    that the peak resident memory is the program's.
    """
    where = f"trace {machine} {case.label}"
    labels: Counter = Counter()
    events = 0
    last = report = None
    log_ok = True
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                record = json.loads(line)
            except ValueError as exc:
                tally.expect(False, f"{where}: a line is not JSON ({exc})")
                return None, events
            if report is not None:
                tally.expect(False, f"{where}: a line follows the report")
            elif "step" not in record:
                report = record
            else:
                events += 1
                if record["step"]:
                    labels[record["label"]] += 1
                if machine in ("iam", "jam") and (
                        len(record["token"]["log"]) != record["path"].split("/").count("Arg")):
                    log_ok = False
                last = record["path"]
    if report is None:
        tally.expect(False, f"{where}: no report line")
        return None, events
    tally.expect(events == report["length"] + 1,
                 f"{where}: {events} events for {report['length']} steps")
    tally.expect(labels == Counter(report["perLabel"]), f"{where}: label counts differ")
    tally.expect(log_ok, f"{where}: a log's length differs from the level of its position")
    head = "/".join(case.whnf.head_path)
    tally.expect(last == head, f"{where}: ends at {last!r}")
    if case.family[:1] == ("tn",):
        n = case.family[1]
        tally.expect(report["length"] == 2 ** (n + 1) - 4, f"{where}: |iam| != 2^(n+1) - 4")
    return report, events


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (lam, seed) -> Inputs
    run_round: object  # (lam, inputs, tally, out_dir) -> None
    verify: object = None  # (lam, inputs) -> list of mismatching labels


WORKLOADS = {
    "tn": Workload("tn", build_tn, lambda lam, i, t, d: _machines_round(lam, i, t), verify_tn),
    "deep": Workload("deep", build_deep, lambda lam, i, t, d: _deep_round(lam, i, t),
                     verify_deep),
    "corpus": Workload("corpus", build_corpus, lambda lam, i, t, d: _corpus_round(lam, i, t)),
    "trace": Workload("trace", build_trace, _trace_round),
}
