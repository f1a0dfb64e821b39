"""Cross-machine bisimulation and relationship checkers.

Each checker runs two machines in lockstep (or one machine against an oracle)
and reports the first divergence with a reproducible counterexample.  Fuel
mismatches are reported as inconclusive rather than failures: the statements
being checked relate complete runs only.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from itertools import zip_longest

from . import harness, ham, kam, liam, ljam, lpam, multitypes as mt, siam, tokens as tk
from .reporting import FuelExhausted, Machine, StuckError, trajectory
from .syntax import DEFAULT_FUEL, Diverged, Term, TermIndex, pretty, whnf_trace


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    inconclusive: bool = False

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
            "details": self.details,
        }


class CheckFailed(Exception):
    """The checked statement fails; ``details`` describe the counterexample."""

    def __init__(self, **details):
        super().__init__(details)
        self.details = details


def checker(name: str):
    """Turn ``fn(index, fuel) -> details`` into a checker of a term returning a
    CheckReport; ``index`` is the term's one TermIndex.

    ``fn`` raises CheckFailed on a counterexample, and a stuck machine fails
    the check too; running out of fuel makes the check inconclusive.  Details
    always start with the printed term.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def check(term: Term, fuel: int = DEFAULT_FUEL) -> CheckReport:
            index, details = TermIndex(term), {"term": pretty(term)}
            try:
                details.update(fn(index, fuel))
            except (Diverged, FuelExhausted):
                details["reason"] = f"fuel {fuel} exhausted before completion"
                return CheckReport(name, passed=True, details=details, inconclusive=True)
            except CheckFailed as exc:
                return CheckReport(name, False, {**details, **exc.details})
            except StuckError as exc:
                return CheckReport(name, False, {**details, "stuck": str(exc)})
            return CheckReport(name, True, details)

        return check

    return wrap


def lockstep(it_a, it_b, relate) -> Counter:
    """Step two runs together and relate every pair of reached states.

    ``relate(label_a, a, label_b, b)`` returns None when the pair is related
    and failure details otherwise; the initial pair has labels None.  Raises
    CheckFailed at the first failure, whose ``step`` is the number of
    transitions that reached the pair.  Returns the transition labels of ``it_a``.
    """
    labels: Counter = Counter()
    for step, pair in enumerate(zip_longest(it_a, it_b)):
        if None in pair:
            raise CheckFailed(step=step, reason="runs ended out of sync")
        (label_a, a, _), (label_b, b, _) = pair
        failure = relate(label_a, a, label_b, b)
        if failure is not None:
            raise CheckFailed(step=step, **failure)
        if label_a is not None:
            labels[label_a] += 1
    return labels


# ---------------------------------------------------------------------------
# Jumping machine -> interaction machine projection


def iam_jam_items(x, y):
    """The rule relating the interaction machine's token items to the jumping
    machine's (see ``tokens.related``): a local logged position to the global
    one of the same occurrence, when its log is the first ``inner`` entries
    of the global log; a marker to a marker."""
    if isinstance(x, tk.Marker) or isinstance(y, tk.Marker):
        return () if x == y else None
    if (type(x) is liam.LoggedPosition and type(y) is ljam.LoggedPosition and x.var is y.var
            and tk.length(x.log) == y.var.inner):
        return ((x.log, y.log),)
    return None


def fold_backtracking(iam_run, labels: Counter):
    """The interaction run with each bt1 .. bt2 block folded into one ``jmp``.

    ``labels`` counts the unfolded transitions; a run that ends inside a
    block ends the folded run before it.
    """
    it = iter(iam_run)
    for step in it:
        label = step[0]
        if label is not None:
            labels[label] += 1
        if label == "bt1":
            depth = 1
            for label, s, _ in it:
                labels[label] += 1
                depth += (label == "bt1") - (label == "bt2")
                if depth == 0:
                    break
            else:
                return
            step = ("jmp", s, 0)
        yield step


@checker("iam-jam")
def check_iam_jam(index: TermIndex, fuel: int) -> dict:
    """Trace alignment: the interaction run is the projected jumping run with each
    jump expanded into a bt1 .. bt2 backtracking block."""
    memo: dict = {}

    def relate(label_j, s_j, label_i, s_i):
        if label_i != label_j:
            return {"expected": label_j, "actual": label_i}
        if not liam.states_related(s_i, s_j, iam_jam_items, memo):
            return {"reason": "interaction state differs from projected jumping state"}
        return None

    iam_labels: Counter = Counter()
    jam_labels = lockstep(trajectory(ljam.MACHINE, index, fuel),
                          fold_backtracking(trajectory(liam.MACHINE, index, fuel), iam_labels),
                          relate)
    iam_steps, jam_steps = sum(iam_labels.values()), sum(jam_labels.values())
    iam_vars, jam_vars = iam_labels["var"], jam_labels["var"]
    if not (jam_steps <= iam_steps and jam_vars <= iam_vars):
        raise CheckFailed(reason="length or var-count inequality violated",
                          jam=jam_steps, iam=iam_steps)
    return {"iam_length": iam_steps, "jam_length": jam_steps,
            "iam_vars": iam_vars, "jam_vars": jam_vars}


# ---------------------------------------------------------------------------
# Jumping machine <-> pointer machine strong bisimulation


@checker("jam-pam")
def check_jam_pam(index: TermIndex, fuel: int) -> dict:
    memo: dict = {}

    def relate(label_j, s_j, label_p, s_p):
        if label_j != label_p:
            return {"jam": label_j, "pam": label_p}
        if s_j.node is not s_p.node or s_j.dir != s_p.dir:
            return {"reason": "positions or directions differ"}
        hist = s_p.history

        def rule(x, y):
            if isinstance(x, tk.Marker):
                return () if isinstance(y, tk.Marker) else None
            if type(x) is ljam.LoggedPosition:  # against a plain position
                return () if x.var is y else None
            # a history index against a log: the log's entries follow the
            # lookup chain from the index, each entry's log the chain below it
            if y is None:
                return () if x == 0 else None
            if not 1 <= x <= len(hist):
                return None
            var, j = hist.entry(x)
            return ((j, y.tail), (x - 1, y.head.log)) if y.head.var is var else None

        if tk.length(s_j.tape) != tk.length(s_p.tape) or not tk.related(
                ((s_j.tape, s_p.tape),), rule, memo):
            return {"reason": "tapes differ"}
        if not tk.related(((s_p.index, s_j.log),), rule, memo):
            return {"reason": "log/history relation fails"}
        if s_j.dir == ljam.UP:
            lp = next((x for x in tk.iterate(s_j.tape) if not isinstance(x, tk.Marker)), None)
            if lp is not None and not tk.related(((len(hist), lp.log),), rule, memo):
                return {"reason": "tape position log does not match full history"}
        return None

    labels = lockstep(trajectory(ljam.MACHINE, index, fuel),
                      trajectory(lpam.MACHINE, index, fuel), relate)
    return {"length": sum(labels.values())}


# ---------------------------------------------------------------------------
# Entangled machine against its two projections


def ham_jam_items(x, y):
    """The rule relating the entangled machine's token items to the jumping
    machine's: a closed position to the global logged position with its
    position and log, a logged closure to a marker."""
    if isinstance(x, ham.LoggedClosure):
        return () if isinstance(y, tk.Marker) else None
    if type(y) is ljam.LoggedPosition and x.node is y.var and tk.length(x.log) == tk.length(y.log):
        return ((x.log, y.log),)
    return None


def ham_kam_items(x, y):
    """The rule relating a logged closure to the closure with its position and environment."""
    if x.node is y.node and tk.length(x.env) == tk.length(y.env):
        return ((x.env, y.env),)
    return None


_J_LABELS = {"p1_app": "p1", "p2_abs": "p2", "var_j": "var",
             "p3": "p3", "p4": "p4", "arg": "arg", "jmp": "jmp"}
_K_LABELS = {"p1_app": "app", "p2_abs": "abs", "var_k": "var"}


@checker("ham-jk")
def check_ham_jk(index: TermIndex, fuel: int) -> dict:
    memo_j: dict = {}
    memo_k: dict = {}

    def relate_j(label_h, s_h, label_j, s_j):
        if _J_LABELS.get(label_h) != label_j:
            return {"ham": label_h, "jam": label_j}
        if not liam.states_related(s_h, s_j, ham_jam_items, memo_j):
            return {"reason": "J-mode state does not erase to the jumping state"}
        return None

    def relate_k(label_h, s_h, label_k, s_k):
        if _K_LABELS.get(label_h) != label_k:
            return {"ham": label_h, "kam": label_k}
        if not (s_h.node is s_k.node and tk.length(s_h.env) == tk.length(s_k.env)
                and tk.length(s_h.tape) == tk.length(s_k.stack)
                and tk.related(((s_h.env, s_k.env), (s_h.tape, s_k.stack)),
                               ham_kam_items, memo_k)):
            return {"reason": "K-mode state does not erase to the Krivine state"}
        return None

    # J mode against the jumping machine, K mode against the Krivine machine
    labels = {}
    for mode, other, relate in ((ham.J_MODE, ljam, relate_j), (ham.K_MODE, kam, relate_k)):
        try:
            labels[mode] = lockstep(trajectory(ham.MODES[mode], index, fuel),
                                    trajectory(other.MACHINE, index, fuel), relate)
        except CheckFailed as exc:
            raise CheckFailed(mode=mode, **exc.details) from None
    j, k = labels[ham.J_MODE], labels[ham.K_MODE]
    hj_len, hk_len = sum(j.values()), sum(k.values())
    hj_up = sum(j[lbl] for lbl in ham.UP_LABELS)
    if hj_len != hk_len + hj_up:
        raise CheckFailed(reason="length equation violated", jam=hj_len, kam=hk_len, up=hj_up)
    if j["var_j"] != k["var_k"]:
        raise CheckFailed(reason="var counts differ", jam=j["var_j"], kam=k["var_k"])
    return {"jam_length": hj_len, "kam_length": hk_len, "up_length": hj_up,
            "var_count": j["var_j"]}


# ---------------------------------------------------------------------------
# Weights against run lengths; derivation machine against the interaction machine


@checker("iam-siam")
def check_iam_siam(index: TermIndex, fuel: int) -> dict:
    """Observable bisimulation: same label and (node, direction) sequences; the
    derivation is about the nodes the interaction machine walks."""
    term = index.root
    dindex = siam.DerivationIndex(mt.star_derivation(index, whnf_trace(term, fuel)), term)

    def relate(label_i, s_i, label_s, s_s):
        if label_i != label_s:
            return {"iam": label_i, "siam": label_s}
        if (s_i.focus, s_i.dir) != siam.observable(s_s):  # nodes compare by identity
            return {"reason": "observables differ"}
        return None

    labels = lockstep(trajectory(liam.MACHINE, index, fuel),
                      trajectory(siam.MACHINE, dindex, fuel), relate)
    return {"length": sum(labels.values())}


@checker("weights")
def check_weights(index: TermIndex, fuel: int) -> dict:
    deriv = mt.star_derivation(index, whnf_trace(index.root, fuel))
    dindex = siam.DerivationIndex(deriv, index.root)
    problems = mt.validate(dindex)
    if problems:
        raise CheckFailed(invalid=problems[:5])
    kam_length, iam_length = (sum(1 for _ in trajectory(m, index, fuel)) - 1
                              for m in (kam.MACHINE, liam.MACHINE))
    siam_report, coverage = siam.run_index(dindex, fuel)
    if siam_report.outcome == "fuel":
        raise FuelExhausted(fuel)
    w_kam = mt.weight_kam(deriv)
    w_iam = mt.weight_iam(deriv)
    stars = coverage.stars
    details = {
        "w_kam": w_kam, "kam_length": kam_length,
        "w_iam": w_iam, "iam_length": iam_length,
        "stars": stars, "siam_length": coverage.length,
        "coverage": f"{coverage.visited}/{coverage.stars}",
    }
    if not (
        w_kam == kam_length
        and w_iam == iam_length
        and coverage.hamiltonian
        and coverage.length == stars - 1
        and w_iam == stars - 1
    ):
        raise CheckFailed(**details)
    return details


@checker("quadratic")
def check_quadratic(index: TermIndex, fuel: int) -> dict:
    """Pointwise |K| <= |J| <= |K| + vars(J)^2 * |t| on one term."""
    j = Counter(label for label, _, _ in trajectory(ljam.MACHINE, index, fuel))
    j_length = j.total() - 1  # the initial state's label is None
    k_length = sum(1 for _ in trajectory(kam.MACHINE, index, fuel)) - 1
    size, vars_j = index.size, j["var"]
    if not (k_length <= j_length <= k_length + vars_j * vars_j * size):
        raise CheckFailed(kam=k_length, jam=j_length, vars=vars_j, size=size)
    return {}


def check_quadratic_bound(terms, fuel: int = DEFAULT_FUEL) -> CheckReport:
    """``check_quadratic`` over a list of terms: the first failing term's report,
    else how many terms it checked, inconclusive if any of them ran out of fuel."""
    skipped = 0
    for term in terms:
        report = check_quadratic(term, fuel)
        if not report.passed:
            return report
        skipped += report.inconclusive
    details = {"checked": len(terms) - skipped}
    if skipped:
        details["reason"] = f"fuel {fuel} exhausted on {skipped} of {len(terms)} terms"
    return CheckReport("quadratic", True, details, inconclusive=skipped > 0)


# ---------------------------------------------------------------------------
# Per-machine invariants over each trajectory, plus run-level identities


def walk_invariants(machine: Machine, index, fuel: int):
    """Check ``machine.invariants`` at every state of its run; returns the
    transition labels and the final state.  The invariants assert, and get
    the label of the transition that reached the state (None at the initial
    state), the labels counted so far and one ``ctx`` dict for the run."""
    labels: Counter = Counter()
    ctx: dict = {}
    for label, state, _ in trajectory(machine, index, fuel):
        if label is not None:
            labels[label] += 1
        machine.invariants(index, label, state, labels, ctx)
    return labels, state


@checker("invariants")
def check_invariants_suite(index: TermIndex, fuel: int) -> dict:
    """Per-state invariants of every registered machine, plus run-level identities.

    The token machines walk the term's index, the derivation machine its ★
    derivation over that index, and all end on one node: the token machines
    at it, the derivation machine on a judgement about it.  Each hopping mode makes
    the transitions of the machine it entangles, renamed: HAM-J those of the
    JAM, HAM-K those of the KAM."""
    steps = whnf_trace(index.root, fuel)  # reduced once: the β count, then the derivation
    beta = len(steps)
    dindex = siam.DerivationIndex(mt.star_derivation(index, steps), index.root)
    try:
        walks = {name: walk_invariants(m, dindex if name == siam.MACHINE.name else index, fuel)
                 for name, m in harness.MACHINES.items()}
    except AssertionError as exc:
        raise CheckFailed(violated=str(exc)) from None
    runs = {name: labels for name, (labels, _) in walks.items()}
    kam_labels = runs["kam"]
    if sum(kam_labels.values()) != kam_labels["var"] + 2 * kam_labels["abs"]:
        raise CheckFailed(reason="Krivine length identity fails")
    if kam_labels["abs"] != beta:
        raise CheckFailed(reason="abs transitions differ from reduction steps")
    if runs["iam"]["bt1"] != runs["iam"]["bt2"]:
        raise CheckFailed(reason="unmatched bt1 at the end of the run")
    jam_labels = runs["jam"]
    if sum(jam_labels[lbl] for lbl in ljam.UP_LABELS) > jam_labels["var"] ** 2 * index.size:
        raise CheckFailed(reason="total up length exceeds vars^2 * size")
    if sum(jam_labels.values()) != sum(runs["pam"].values()):
        raise CheckFailed(reason="jam/pam lengths differ")
    for mode, renamed, other in (("ham-j", _J_LABELS, "jam"), ("ham-k", _K_LABELS, "kam")):
        if Counter({renamed.get(lbl, lbl): n for lbl, n in runs[mode].items()}) != runs[other]:
            raise CheckFailed(reason=f"{mode} transitions differ from the {other}'s")
    ends = [state for _, state in walks.values()]
    if any(s.focus is not ends[0].focus for s in ends):
        raise CheckFailed(reason="the machines end on different subterms")
    return {}


# the checker registry: name -> checker of one term ("quadratic" takes a corpus)
CHECKERS: dict = {
    "iam-jam": check_iam_jam,
    "jam-pam": check_jam_pam,
    "ham-jk": check_ham_jk,
    "iam-siam": check_iam_siam,
    "weights": check_weights,
    "quadratic": check_quadratic_bound,
    "invariants": check_invariants_suite,
}
