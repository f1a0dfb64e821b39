import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from lamrun import equivalence as eq, ham, harness, kam, liam, ljam, lpam, multitypes as mt, siam
from lamrun import reporting, tokens as tk
from lamrun.reporting import Stuck, trajectory
from lamrun.syntax import ARG, BODY, FUN, TermIndex, parse

from conftest import FAMILIES, at


def test_project_initial_states(running_example):
    index = TermIndex(running_example)
    assert liam.states_related(liam.initial(index), ljam.initial(index), eq.iam_jam_items, {})


def test_project_global_position(running_example):
    # the saved global head-variable query relates to the binder-rooted local one
    index = TermIndex(running_example)
    x = at(index, (FUN, FUN, BODY, BODY, FUN))
    px = ljam.LoggedPosition(x, None)
    local = liam.LoggedPosition(x, None)
    items = eq.iam_jam_items
    assert tk.related([(local, px)], items, {})
    assert not tk.related([(replace(local, var=at(index, (FUN, FUN, BODY, BODY, ARG))), px)],
                          items, {})
    # an IAM item where a JAM item is expected: the rules tell them apart by type
    assert not tk.related([(local, local)], items, {})
    cp = ham.ClosedPosition(x, None, None)
    assert tk.related([(cp, px)], eq.ham_jam_items, {})
    assert not tk.related([(cp, local)], eq.ham_jam_items, {})


def test_project_truncates_log_to_inner_level(running_example):
    index = TermIndex(running_example)
    px = ljam.LoggedPosition(at(index, (FUN, FUN, BODY, BODY, FUN)), None)
    pz = ljam.LoggedPosition(at(index, (ARG, BODY)), tk.cons(px, None))
    py = ljam.LoggedPosition(at(index, (FUN, FUN, BODY, BODY, ARG)), tk.cons(pz, tk.cons(pz, None)))
    # the occurrence sits one argument under its binder: one log entry kept,
    # and none of the entry's own log, whose occurrence is at its binder's level
    local_px = liam.LoggedPosition(px.var, None)
    local_pz = liam.LoggedPosition(pz.var, None)
    local_py = liam.LoggedPosition(py.var, tk.cons(local_pz, None))
    items = eq.iam_jam_items
    assert tk.related([(local_py, py)], items, {})
    for log in (None, tk.cons(local_pz, tk.cons(local_pz, None))):
        assert not tk.related([(replace(local_py, log=log), py)], items, {})
    untruncated = replace(local_pz, log=tk.cons(local_px, None))
    assert not tk.related([(replace(local_py, log=tk.cons(untruncated, None)), py)], items, {})


def test_check_iam_jam(running_example, duplication_example, corpus):
    r = eq.check_iam_jam(running_example, 1000)
    assert r.passed and r.details["iam_length"] == 18 and r.details["jam_length"] == 15
    assert eq.check_iam_jam(duplication_example, 1000).passed
    assert eq.check_iam_jam(parse("\\x.x"), 10).passed
    for term in corpus:
        assert eq.check_iam_jam(term, 10**6).passed


def test_check_jam_pam(running_example, duplication_example, corpus):
    assert eq.check_jam_pam(running_example, 1000).passed
    assert eq.check_jam_pam(duplication_example, 1000).passed
    assert eq.check_jam_pam(parse("\\x.x"), 10).passed
    for term in corpus:
        assert eq.check_jam_pam(term, 10**6).passed


def test_check_ham_jk(running_example, corpus):
    assert eq.check_ham_jk(running_example, 1000).passed
    assert eq.check_ham_jk(parse("\\x.x"), 10).passed
    for term in corpus:
        assert eq.check_ham_jk(term, 10**6).passed


@pytest.mark.parametrize("check", [eq.check_iam_jam, eq.check_ham_jk])
def test_checkers_relate_deep_chains_in_little_memory(check):
    # I (I (... (λz.z))) 400 deep: no per-step copy of the other machine's token
    depth = 400
    term = parse("(\\x.x) (" * depth + "\\z.z" + ")" * depth)
    tracemalloc.start()
    try:
        report = check(term, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and not report.inconclusive
    assert peak < 16 * 2**20


def test_check_weights(running_example, corpus):
    r = eq.check_weights(running_example, 1000)
    assert r.passed and r.details["w_iam"] == 18 and r.details["w_kam"] == 9
    for term in corpus[:50]:
        assert eq.check_weights(term, 10**6).passed


def test_check_weights_indexes_the_derivation_once(running_example, monkeypatch):
    # validation and the SIAM walk read one DerivationIndex
    built = []
    init = mt.DerivationIndex.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(mt.DerivationIndex, "__init__", counting)
    assert eq.check_weights(running_example, 1000).passed
    assert len(built) == 1


@pytest.mark.parametrize("name", sorted(eq.CHECKERS))
def test_each_checker_builds_one_term_index(monkeypatch, name):
    built = 0
    build = TermIndex.__init__

    def counting_build(self, term):
        nonlocal built
        built += 1
        build(self, term)

    monkeypatch.setattr(TermIndex, "__init__", counting_build)
    t_4 = harness.family_tn(4)
    check = eq.CHECKERS[name]
    report = check([t_4], 1000) if name == "quadratic" else check(t_4, 1000)
    assert report.passed and not report.inconclusive
    assert built == 1


def test_check_iam_siam(running_example, corpus):
    assert eq.check_iam_siam(running_example, 1000).passed
    for term in corpus[:30]:
        assert eq.check_iam_siam(term, 10**6).passed


def test_quadratic_bound(corpus):
    from lamrun.harness import family_tn, family_rkh
    terms = corpus + [family_tn(n) for n in range(1, 13)]
    terms += [family_rkh(k, h) for k in (1, 2) for h in (1, 2)]
    report = eq.check_quadratic_bound(terms, 10**6)
    assert report.passed
    assert report.details["checked"] == len(terms)


def test_quadratic_bound_fails_on_a_stuck_machine(monkeypatch, running_example):
    monkeypatch.setattr(ljam, "step", lambda index, s: Stuck("patched"))
    report = eq.check_quadratic_bound([running_example], 1000)
    assert not report.passed and not report.inconclusive
    assert report.details == {"term": "(λy.λx.x y) (λz.z) (λz.z)", "stuck": "jam stuck: patched"}


def test_inconclusive_on_divergence(omega):
    r = eq.check_iam_jam(omega, 200)
    assert r.inconclusive and r.passed
    r = eq.check_weights(omega, 200)
    assert r.inconclusive


def test_length_only_relations_sample_no_footprint(monkeypatch, corpus):
    """``weights`` and ``quadratic`` read lengths and label counts: they fold
    the token machines' walks and build no report, so no footprint is sampled;
    only the SIAM's coverage goes through ``reporting.drive``."""
    def no_sample(*roots):
        raise AssertionError("footprint sampled")

    driven, drive = [], reporting.drive

    def counted(name, *args):
        driven.append(name)
        return drive(name, *args)

    monkeypatch.setattr(tk.Reach, "update", no_sample)
    monkeypatch.setattr(reporting, "drive", counted)
    for term in FAMILIES + corpus:
        assert eq.check_weights(term).passed
        assert eq.check_quadratic(term).passed
    assert driven == ["siam"] * len(FAMILIES + corpus)


def test_invariants_suite(running_example, duplication_example):
    assert eq.check_invariants_suite(running_example, 1000).passed
    assert eq.check_invariants_suite(duplication_example, 1000).passed


@pytest.mark.parametrize("name", ["iam", "jam", "pam", "kam", "ham-j", "ham-k", "siam"])
def test_invariants_suite_checks_every_registered_machine(monkeypatch, running_example, name):
    def raises(index, label, s, labels, ctx):
        raise AssertionError(f"{name} invariant")

    monkeypatch.setitem(harness.MACHINES, name, replace(harness.MACHINES[name], invariants=raises))
    report = eq.check_invariants_suite(running_example, 1000)
    assert not report.passed and not report.inconclusive
    assert report.details["violated"] == f"{name} invariant"


def test_invariants_suite_walks_each_machine_once(monkeypatch, running_example):
    walks: Counter = Counter()
    builds = 0
    walk, build = eq.trajectory, TermIndex.__init__

    def counting_walk(machine, index, fuel):
        walks[machine.name] += 1
        return walk(machine, index, fuel)

    def counting_build(self, term):
        nonlocal builds
        builds += 1
        build(self, term)

    monkeypatch.setattr(eq, "trajectory", counting_walk)
    monkeypatch.setattr(TermIndex, "__init__", counting_build)
    assert eq.check_invariants_suite(running_example, 1000).passed
    assert walks == Counter(list(harness.MACHINES)) and builds == 1


def test_invariants_suite_reduces_once(monkeypatch, running_example):
    reductions = 0
    reduce = eq.whnf_trace

    def counting_reduce(term, fuel):
        nonlocal reductions
        reductions += 1
        return reduce(term, fuel)

    monkeypatch.setattr(eq, "whnf_trace", counting_reduce)
    monkeypatch.setattr(mt, "whnf_trace", counting_reduce)
    assert eq.check_invariants_suite(running_example, 1000).passed
    assert reductions == 1


def test_invariants_suite_names_a_stuck_machine(monkeypatch, running_example):
    original = liam.step
    seen = 0

    def step(index, s):
        nonlocal seen
        seen += 1
        return Stuck("corrupted") if seen == 3 else original(index, s)

    monkeypatch.setattr(liam, "step", step)
    report = eq.check_invariants_suite(running_example, 1000)
    assert not report.passed and not report.inconclusive
    assert report.details["stuck"] == "iam stuck: corrupted"


def test_iam_invariants_reject_a_bt2_that_ends_no_pending_bt1(running_example):
    index = TermIndex(running_example)
    states = list(trajectory(liam.MACHINE, index, 1000))
    at = next(i for i, (label, _, _) in enumerate(states) if label == "bt2")
    labels = Counter(label for label, _, _ in states[1:at + 1])
    for pending in ([], [tk.MARKER]):
        ctx = {"pending": pending, "prev": states[at - 1][1]}
        with pytest.raises(AssertionError, match="bt2 does not exhaust the innermost pending bt1"):
            liam.check_invariants(index, "bt2", states[at][1], labels, ctx)


def test_jam_invariants_reject_an_overlong_up_phase(running_example):
    index = TermIndex(running_example)
    states = list(trajectory(ljam.MACHINE, index, 1000))
    at = next(i for i, (label, _, _) in enumerate(states) if label in ljam.UP_LABELS)
    labels = Counter(label for label, _, _ in states[1:at + 1])
    with pytest.raises(AssertionError, match="up phase exceeds depth \\* size bound"):
        ljam.check_invariants(index, states[at][0], states[at][1], labels, {"phase": [0, 0]})


def test_siam_invariants_reject_a_type_path_without_a_star(running_example):
    dindex = siam.DerivationIndex(mt.infer_star_derivation(running_example, 1000),
                                  running_example)
    left = dindex.deriv.left  # its type is an arrow
    for node, star in ((left, -1), (dindex.deriv, 1), (left, left.rh_type.stars)):
        s = siam.SiamState(node, star, siam.TO_LEAVES)  # a number past the type's ★s
        with pytest.raises(AssertionError, match="★ number outside the type's ★s"):
            siam.check_invariants(dindex, None, s, {}, {})


def test_invariants_suite_reports_a_disagreeing_inverse_step(monkeypatch, running_example):
    original = siam.step_back

    def step_back(step, index, s):
        label, state = original(step, index, s)
        return label, replace(state, dir=siam.TO_ROOT if state.dir == siam.TO_LEAVES
                              else siam.TO_LEAVES)

    monkeypatch.setattr(siam, "step_back", step_back)
    report = eq.check_invariants_suite(running_example, 1000)
    assert not report.passed and not report.inconclusive
    assert report.details["violated"] == "inverse step disagrees"


def test_invariants_suite_checks_a_siam_branch_its_run_never_takes(monkeypatch):
    # the SIAM run of (λx.x) (λy.y) is p1, p2, var, arg: only the inverse
    # step, the dual p4 from its p2 state flipped, reaches the corrupted branch
    original = siam.step

    def step(index, s):
        result = original(index, s)
        if type(result) is tuple and result[0] == "p4":
            label, state, cost = result
            return (label, replace(state, dir=siam.TO_LEAVES), cost)
        return result

    term = parse("(\\x.x) (\\y.y)")
    labels = [label for label, _, _ in trajectory(siam.MACHINE, siam.DerivationIndex(
        mt.infer_star_derivation(term, 100), term), 100)]
    assert labels == [None, "p1", "p2", "var", "arg"]
    monkeypatch.setattr(siam, "step", step)
    report = eq.check_invariants_suite(term, 1000)
    assert not report.passed and not report.inconclusive
    assert report.details["violated"] == "inverse step disagrees"


def test_invariants_suite_reports_an_unmatched_bt1(monkeypatch, running_example):
    corrupt(monkeypatch, liam, "step", 15, label="bogus")  # the one bt2 of the run
    report = eq.check_invariants_suite(running_example, 1000)
    assert not report.passed and not report.inconclusive
    assert report.details["reason"] == "unmatched bt1 at the end of the run"


def test_invariants_suite_sees_a_k_mode_hopping_machine_that_stops_early(
        monkeypatch, running_example):
    step_mode = ham.step_mode

    def drop_pushed_closure(index, s, mode):
        result = step_mode(index, s, mode)
        if mode == ham.K_MODE and type(result) is tuple and result[0] == "p1_app":
            label, state, cost = result
            return (label, replace(state, tape=s.tape), cost)
        return result

    monkeypatch.setattr(ham, "step_mode", drop_pushed_closure)
    report = eq.check_invariants_suite(running_example, 1000)
    assert not report.passed and not report.inconclusive
    assert report.details["reason"] == "ham-k transitions differ from the kam's"


def test_invariants_suite_sees_a_machine_that_ends_on_the_wrong_abstraction(monkeypatch):
    # each KAM var lands on the function's λ instead of the argument's, with the
    # environment it would have had: every count and per-state invariant holds
    term = parse("(\\x.x) (\\y.y)")
    step = kam.step

    def wrong_landing(index, s):
        result = step(index, s)
        if type(result) is tuple and result[0] == "var":
            label, state, cost = result
            return (label, replace(state, node=index.top.fun), cost)
        return result

    monkeypatch.setattr(kam, "step", wrong_landing)
    assert kam.run(term, 100).final_state.pos == (FUN,)
    report = eq.check_invariants_suite(term, 1000)
    assert not report.passed and not report.inconclusive
    assert report.details["reason"] == "the machines end on different subterms"


# ---------------------------------------------------------------------------
# Each checker reports a corrupted transition


def corrupt(monkeypatch, module, attr, nth, mode=None, label=None, pos=None):
    """Rebind ``module.attr`` (a step function) so that its transition number
    ``nth`` gets ``label`` or lands on the node at path ``pos``; ``mode``
    limits it to one mode."""
    original = getattr(module, attr)
    seen = 0

    def step(index, s, *args):
        nonlocal seen
        result = original(index, s, *args)
        if mode is None or args == (mode,):
            seen += 1
            if seen == nth:
                label_was, state, cost = result
                state = state if pos is None else replace(state, node=at(index, pos))
                return (label or label_was, state, cost)
        return result

    monkeypatch.setattr(module, attr, step)


@pytest.mark.parametrize("check,module,attr,mode,change,expected", [
    (eq.check_iam_jam, liam, "step", None, {"label": "bogus"}, {"actual": "bogus"}),
    (eq.check_iam_jam, ljam, "step", None, {"pos": ()},
     {"reason": "interaction state differs from projected jumping state"}),
    (eq.check_jam_pam, lpam, "step", None, {"label": "bogus"}, {"pam": "bogus"}),
    (eq.check_jam_pam, lpam, "step", None, {"pos": ()},
     {"reason": "positions or directions differ"}),
    (eq.check_ham_jk, ham, "step_mode", ham.J_MODE, {"label": "bogus"},
     {"mode": ham.J_MODE, "ham": "bogus"}),
    (eq.check_ham_jk, ham, "step_mode", ham.K_MODE, {"pos": ()},
     {"mode": ham.K_MODE, "reason": "K-mode state does not erase to the Krivine state"}),
    (eq.check_iam_siam, siam, "step", None, {"label": "bogus"}, {"siam": "bogus"}),
    (eq.check_iam_siam, liam, "step", None, {"pos": ()}, {"reason": "observables differ"}),
])
def test_checkers_report_a_corrupted_transition(monkeypatch, running_example, check, module,
                                                attr, mode, change, expected):
    corrupt(monkeypatch, module, attr, 3, mode, **change)
    report = check(running_example, 1000)
    assert not report.passed and not report.inconclusive
    assert report.details["step"] == 3
    assert expected.items() <= report.details.items()
