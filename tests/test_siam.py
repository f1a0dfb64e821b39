import json
from pathlib import Path

import pytest

from lamrun import equivalence as eq, harness, liam, multitypes as mt, siam
from lamrun.cli import _table
from lamrun.reporting import FuelExhausted, step_back, trajectory
from lamrun.syntax import TermIndex, parse, whnf_trace

from conftest import FAMILIES, church_ii, traced_peak


def test_identity_initial_is_final():
    t = parse("\\x.x")
    deriv = mt.infer_star_derivation(t, 10)
    report, coverage = siam.run(deriv, t, 10)
    assert report.length == 0
    assert coverage.hamiltonian and coverage.stars == 1


def test_non_star_derivation_rejected():
    term = parse("\\x.x")
    top = TermIndex(term).top
    deriv = mt.DLam(top, (mt.STAR,), mt.DVar(top.body, 0, mt.STAR),
                    mt.Arrow((mt.STAR,), mt.STAR))
    with pytest.raises(siam.NotStarDerivationError):
        siam.initial(siam.DerivationIndex(deriv, term))


EXPECTED_RUNNING_ORDER = [
    ("", "·", "up"),
    ("Fun", "T", "up"),
    ("Fun/Fun", "T/T", "up"),
    ("Fun/Fun/Body", "T", "up"),
    ("Fun/Fun/Body/Body", "·", "up"),
    ("Fun/Fun/Body/Body/Fun", "T", "up"),
    ("Fun/Fun/Body", "E1/T", "down"),
    ("Fun/Fun", "T/E1/T", "down"),
    ("Fun", "E1/T", "down"),
    ("Arg", "T", "up"),
    ("Arg/Body", "·", "up"),
    ("Arg", "E1", "down"),
    ("Fun", "E1/E1", "up"),
    ("Fun/Fun", "T/E1/E1", "up"),
    ("Fun/Fun/Body", "E1/E1", "up"),
    ("Fun/Fun/Body/Body/Fun", "E1", "down"),
    ("Fun/Fun/Body/Body/Arg", "·", "up"),
    ("Fun/Fun", "E1", "down"),
    ("Fun/Arg", "·", "up"),
]


def test_visits_every_star_once_in_order(running_example):
    deriv = mt.infer_star_derivation(running_example, 10)
    dindex = siam.DerivationIndex(deriv, running_example)
    rows = [
        ("/".join(s.node.term_pos), siam.tpath_str(s.node.rh_type, s.star), s.dir)
        for _, s, _ in trajectory(siam.MACHINE, dindex, 100)
    ]
    assert rows == EXPECTED_RUNNING_ORDER
    report, coverage = siam.run(deriv, running_example, 100)
    assert report.length == 18
    assert coverage.hamiltonian and coverage.stars == 19 and coverage.repeated == 0


def test_duplication_coverage(duplication_example):
    deriv = mt.infer_star_derivation(duplication_example, 10)
    report, coverage = siam.run(deriv, duplication_example, 100)
    assert report.length == 12
    assert coverage.hamiltonian and coverage.stars == 13


def test_observable_projection_matches_interaction_machine(running_example, corpus):
    for term in [running_example] + corpus[:30]:
        index = TermIndex(term)  # the judgements are about the interaction machine's nodes
        dindex = siam.DerivationIndex(mt.star_derivation(index, whnf_trace(term, 10**6)), term)
        siam_obs = [(lbl,) + siam.observable(s)
                    for lbl, s, _ in trajectory(siam.MACHINE, dindex, 10**6)]
        iam_obs = [(lbl, s.node, s.dir) for lbl, s, _ in trajectory(liam.MACHINE, index, 10**6)]
        assert iam_obs == siam_obs  # nodes compare by identity


def test_initial_projects_to_root_down(running_example):
    index = TermIndex(running_example)
    dindex = siam.DerivationIndex(
        mt.star_derivation(index, whnf_trace(running_example, 10)), running_example)
    node, dir_ = siam.observable(siam.initial(dindex))
    assert node is index.top and dir_ == "down"


def test_bideterminism(running_example, duplication_example, corpus):
    for term in [running_example, duplication_example] + corpus[:25]:
        deriv = mt.infer_star_derivation(term, 10**6)
        dindex = siam.DerivationIndex(deriv, term)
        prev = None
        for label, state, _ in trajectory(siam.MACHINE, dindex, 10**6):
            if prev is not None:
                back = step_back(siam.step, dindex, state)
                assert back is not None
                blabel, bstate = back
                assert blabel == label
                assert bstate.node is prev.node and bstate.star == prev.star
                assert bstate.dir == prev.dir
                fwd = siam.step(dindex, bstate)
                assert type(fwd) is tuple and fwd[1].node is state.node
            prev = state
        assert step_back(siam.step, dindex, siam.initial(dindex)) is None


def test_var_bt2_roundtrip(running_example, duplication_example):
    # the binder-axiom index round-trips: var from each ★ of an axiom's type
    # targets entry i of the binder's domain, and bt2 from there comes back
    for term in (running_example, duplication_example):
        deriv = mt.infer_star_derivation(term, 10)
        dindex = siam.DerivationIndex(deriv, term)
        for node in mt.iter_nodes(deriv):
            if not isinstance(node, mt.DVar):
                continue
            binder, i = node.binder, node.place
            for k in range(mt.star_norm(node.rh_type)):
                label, after_var, _ = siam.step(dindex, siam.SiamState(node, k, siam.TO_LEAVES))
                assert label == "var"
                star = siam.push(binder.rh_type, i, k)
                assert after_var.node is binder and after_var.star == star
                label, after_bt2, _ = siam.step(dindex,
                                                siam.SiamState(binder, star, siam.TO_LEAVES))
                assert label == "bt2"
                assert after_bt2.node is node and after_bt2.star == k


def table_trace(dindex):
    """What ``lamrun run --machine siam --trace table`` prints, from ``dindex``."""
    rows: list = []
    report, _ = siam.run_index(dindex, 100, sink=rows.append)
    return f"{_table(rows, dindex.root)}\n{json.dumps(report.to_json(), ensure_ascii=False)}\n"


def test_the_links_are_those_of_the_last_index(running_example):
    """Indexing a subderivation re-roots it and frees its axioms; indexing the
    whole derivation again gives the whole its links, and so its trace, back."""
    expected = (Path(__file__).parent / "fixtures" / "tables" / "running-siam.txt").read_text(
        encoding="utf-8")
    deriv = mt.infer_star_derivation(running_example, 10)
    assert table_trace(siam.DerivationIndex(deriv, running_example)) == expected
    inner = deriv.left.left.body  # λx.x y, under the λy that binds its axiom y
    sub = siam.DerivationIndex(inner, inner.subject.term)
    assert inner.parent is None and inner.ordinal == 0 and inner.first == 0
    assert len(sub.free) == 1 and sub.free[0].binder is None
    whole = siam.DerivationIndex(deriv, running_example)
    assert inner.parent is deriv.left.left and inner.slot == "body"
    assert sub.free[0].binder is deriv.left.left and sub.free[0].place == 1
    assert table_trace(whole) == expected
    # a second index over the same judgements validates and runs alike
    again = siam.DerivationIndex(deriv, running_example)
    assert mt.validate(again) == mt.validate(whole) == []
    assert again.preorder == whole.preorder and again.stars == whole.stars == 19
    assert table_trace(again) == expected


def reference_coverage(dindex, fuel):
    """``(stars, visited, length, hamiltonian)`` from a set of ``(judgement, ★
    number)`` pairs over the run's trajectory, and the ★s counted by a walk."""
    seen, length = set(), -1
    try:
        for _, s, _ in trajectory(siam.MACHINE, dindex, fuel):
            seen.add((s.node, s.star))
            length += 1
    except FuelExhausted:
        pass
    stars = mt.star_count(dindex.deriv)
    return stars, len(seen), length, length + 1 == len(seen) == stars


def coverage_row(coverage):
    return coverage.stars, coverage.visited, coverage.length, coverage.hamiltonian


def test_no_state_repeats(corpus):
    for term in FAMILIES + corpus:
        dindex = siam.DerivationIndex(mt.infer_star_derivation(term, 10**6), term)
        report, coverage = siam.run_index(dindex, 10**6)
        assert coverage_row(coverage) == reference_coverage(dindex, 10**6)
        assert coverage.repeated == 0
        assert coverage.visited == coverage.stars
        assert coverage.length == report.length == coverage.stars - 1


def stuttering(monkeypatch, stutters):
    """Make the SIAM's step give back the state it was given at the calls
    whose 1-based numbers ``stutters`` holds; returns the list of calls."""
    original = siam.step
    calls = []

    def step(index, s):
        calls.append(s)
        if stutters(len(calls)):
            return ("p1", s, 1)
        return original(index, s)

    monkeypatch.setattr(siam, "step", step)
    return calls


def test_a_repeated_state_is_not_hamiltonian(monkeypatch, running_example):
    dindex = siam.DerivationIndex(mt.infer_star_derivation(running_example, 10), running_example)
    # the fifth step stutters: the run still ends and reaches every ★, one of them twice
    calls = stuttering(monkeypatch, lambda call: call == 5)
    report, coverage = siam.run_index(dindex, 100)
    assert report.outcome == "final" and report.length == 19
    assert (coverage.visited, coverage.stars, coverage.repeated) == (19, 19, 1)
    assert not coverage.hamiltonian
    calls.clear()
    assert coverage_row(coverage) == reference_coverage(dindex, 100) == (19, 19, 19, False)
    # every step from the fifth on stutters: the run repeats one state until its fuel runs out
    calls = stuttering(monkeypatch, lambda call: call >= 5)
    report, coverage = siam.run_index(dindex, 8)
    assert report.outcome == "fuel"
    assert (coverage.visited, coverage.length, coverage.repeated) == (5, 8, 4)
    assert not coverage.hamiltonian
    calls.clear()
    assert coverage_row(coverage) == reference_coverage(dindex, 8) == (19, 5, 8, False)


def star_paths(ty, prefix=()):
    """The type paths to the ★s of ``ty``, enumerated recursively from the left."""
    if isinstance(ty, mt.Star):
        return ["/".join(prefix) or "·"]
    paths = []
    for i, entry in enumerate(ty.domain, 1):
        paths += star_paths(entry, prefix + (f"E{i}",))
    return paths + star_paths(ty.target, prefix + ("T",))


def types_in(derivs) -> list:
    """Every type object in the judgements' types, nested ones too, each once."""
    found: dict = {}
    todo = [n.rh_type for d in derivs for n in mt.iter_nodes(d)]
    while todo:
        ty = todo.pop()
        if id(ty) not in found:
            found[id(ty)] = ty
            if isinstance(ty, mt.Arrow):
                todo.extend(ty.domain)
                todo.append(ty.target)
    return list(found.values())


def counted_push(ty, step, k):
    """``push`` from the ★ counts of the entries before the one entered."""
    if step == siam.TARGET:
        return ty.stars - mt.star_norm(ty.target) + k
    return mt.star_norm(ty.domain[:step - 1]) + k


def test_star_numbering_matches_a_recursive_enumeration(corpus):
    terms = FAMILIES + corpus + [church_ii(5),
                                 parse("two two I I", {"I": "\\z.z", "two": "\\f.\\x.f (f x)"})]
    types = types_in(mt.infer_star_derivation(t, 10**6) for t in terms)
    arrows = [ty for ty in types if isinstance(ty, mt.Arrow)]
    assert len(arrows) >= 600 and max(len(ty.domain) for ty in arrows) >= 3
    for ty in types:
        paths = star_paths(ty)
        assert len(paths) == mt.star_norm(ty)
        assert [siam.tpath_str(ty, k) for k in range(len(paths))] == paths
    for ty in arrows:
        # one offset per domain entry, then the target's: the domain's ★ total
        assert len(ty.starts) == len(ty.domain) + 1
        assert ty.starts[-1] == ty.stars - mt.star_norm(ty.target)
        for step, entry in [(siam.TARGET, ty.target)] + list(enumerate(ty.domain, 1)):
            for k in range(mt.star_norm(entry)):
                star = siam.push(ty, step, k)
                assert star == counted_push(ty, step, k)
                assert siam.pop(ty, star) == (step, k)


def test_a_transition_counts_no_stars(monkeypatch, corpus):
    derivs = [(mt.infer_star_derivation(t, 10**6), t) for t in FAMILIES + corpus[:40]]
    monkeypatch.setattr(mt, "star_norm", lambda ty: pytest.fail("a ★ count in a SIAM run"))
    for deriv, term in derivs:
        dindex = siam.DerivationIndex(deriv, term)
        eq.walk_invariants(siam.MACHINE, dindex, 10**6)  # every step, inverse step and invariant
        siam.run_index(dindex, 10**6)


def test_only_a_run_walks_the_subject_for_its_size(monkeypatch, running_example):
    # a DerivationIndex walks its subject for ``size`` only when a run's report
    # reads it, once: the iam-siam and invariants checkers never do, and
    # ``check weights``, which runs the SIAM, does once
    walked = []
    term_size = mt.term_size
    monkeypatch.setattr(mt, "term_size", lambda term: walked.append(term) or term_size(term))
    assert eq.check_iam_siam(running_example, 1000).passed
    assert eq.check_invariants_suite(running_example, 1000).passed
    assert walked == []
    assert eq.check_weights(running_example, 1000).passed
    assert walked == [running_example]
    walked.clear()
    dindex = siam.DerivationIndex(mt.infer_star_derivation(running_example, 1000),
                                  running_example)
    report, _ = siam.run_index(dindex, 1000)
    assert walked == [running_example]
    vars_ = report.per_label["var"]
    assert report.ram_cost_bound == (report.length - vars_) + vars_ * 11
    assert dindex.size == 11 and walked == [running_example]


def test_coverage_takes_what_the_fuel_reaches():
    # t_24's derivation has 2^25 − 3 ★s; a walk of 1 000 transitions reaches
    # 1 001 of them, and its coverage keeps those, not a byte for every ★
    term = harness.family_tn(24)
    dindex = siam.DerivationIndex(mt.infer_star_derivation(term), term)
    (report, coverage), peak = traced_peak(siam.run_index, dindex, 1000)
    assert report.outcome == "fuel"
    assert coverage == siam.CoverageReport(2**25 - 3, 1001, 1000)
    assert peak < 2**20, f"{peak} B"
