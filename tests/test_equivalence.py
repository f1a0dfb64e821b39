import tracemalloc
from dataclasses import replace

import pytest

from lamrun import equivalence as eq, ham, harness, liam, ljam, lpam, siam, tokens as tk
from lamrun.reporting import Next, Stuck, StuckError
from lamrun.syntax import ARG, BODY, FUN, TermIndex, parse


def test_project_initial_states(running_example):
    index = TermIndex(running_example)
    assert liam.states_related(liam.initial(index), ljam.initial(index),
                               eq.iam_jam_items(index), {})


def test_project_global_position(running_example):
    # the saved global head-variable query relates to the binder-rooted local one
    index = TermIndex(running_example)
    px = tk.LoggedPosition((FUN, FUN, BODY, BODY, FUN), (), tk.GLOBAL, None)
    local = tk.LoggedPosition((FUN, FUN, BODY, BODY, FUN), (FUN, FUN, BODY), tk.LOCAL, None)
    items = eq.iam_jam_items(index)
    assert tk.related([(local, px)], items, {})
    assert not tk.related([(replace(local, scope_path=()), px)], items, {})
    assert not tk.related([(replace(local, flavor=tk.GLOBAL), px)], items, {})


def test_project_truncates_log_to_inner_level(running_example):
    index = TermIndex(running_example)
    px = tk.LoggedPosition((FUN, FUN, BODY, BODY, FUN), (), tk.GLOBAL, None)
    pz = tk.LoggedPosition((ARG, BODY), (), tk.GLOBAL, tk.cons(px, None))
    py = tk.LoggedPosition((FUN, FUN, BODY, BODY, ARG), (), tk.GLOBAL,
                           tk.cons(pz, tk.cons(pz, None)))
    # the occurrence sits one argument under its binder: one log entry kept,
    # and none of the entry's own log, whose occurrence is at its binder's level
    local_px = tk.LoggedPosition(px.var_path, (FUN, FUN, BODY), tk.LOCAL, None)
    local_pz = tk.LoggedPosition((ARG, BODY), (ARG,), tk.LOCAL, None)
    local_py = tk.LoggedPosition(py.var_path, (FUN, FUN), tk.LOCAL, tk.cons(local_pz, None))
    items = eq.iam_jam_items(index)
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


def test_inconclusive_on_divergence(omega):
    r = eq.check_iam_jam(omega, 200)
    assert r.inconclusive and r.passed
    r = eq.check_weights(omega, 200)
    assert r.inconclusive


def test_invariants_suite(running_example, duplication_example):
    assert eq.check_invariants_suite(running_example, 1000).passed
    assert eq.check_invariants_suite(duplication_example, 1000).passed


@pytest.mark.parametrize("name", ["iam", "jam", "pam", "kam", "ham-j", "ham-k"])
def test_invariants_suite_checks_every_registered_machine(monkeypatch, running_example, name):
    def raises(index, s, labels, ctx):
        raise AssertionError(f"{name} invariant")

    monkeypatch.setitem(harness.MACHINES, name, replace(harness.MACHINES[name], invariants=raises))
    report = eq.check_invariants_suite(running_example, 1000)
    assert not report.passed and not report.inconclusive
    assert report.details["violated"] == f"{name} invariant"


def test_invariants_suite_checks_every_siam_state(monkeypatch, running_example):
    def check_state(index, s):
        raise AssertionError("siam state")

    monkeypatch.setattr(siam, "check_state", check_state)
    report = eq.check_invariants_suite(running_example, 1000)
    assert not report.passed and not report.inconclusive
    assert (report.details["sub"], report.details["violated"]) == ("siam-bidet", "siam state")


def test_invariants_suite_names_a_stuck_machine(monkeypatch, running_example):
    original = liam.step
    seen = 0

    def step(index, s):
        nonlocal seen
        seen += 1
        return Stuck("corrupted") if seen == 3 else original(index, s)

    monkeypatch.setattr(liam, "step", step)
    with pytest.raises(StuckError, match="^iam stuck: corrupted$"):
        eq.check_invariants_suite(running_example, 1000)


# ---------------------------------------------------------------------------
# Each checker reports a corrupted transition


def corrupt(monkeypatch, module, attr, at, mode=None, label=None, pos=None):
    """Rebind ``module.attr`` (a step function) so that its transition number
    ``at`` gets ``label`` or lands on ``pos``; ``mode`` limits it to one mode."""
    original = getattr(module, attr)
    seen = 0

    def step(index, s, *args):
        nonlocal seen
        result = original(index, s, *args)
        if mode is None or args == (mode,):
            seen += 1
            if seen == at:
                state = result.state if pos is None else replace(result.state, pos=pos)
                return Next(label or result.label, state, result.cost)
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
