import pytest

from lamrun import ham, kam, ljam
from lamrun.equivalence import check_ham_jk, walk_invariants
from lamrun.reporting import trajectory
from lamrun.syntax import TermIndex, parse


def test_identity_final_in_both_modes():
    t = parse("\\x.x")
    assert ham.run(t, ham.J_MODE, 10).length == 0
    assert ham.run(t, ham.K_MODE, 10).length == 0


def test_mode_must_be_valid(running_example):
    with pytest.raises(ValueError):
        ham.run(running_example, "mixed", 10)


def test_k_mode_never_goes_up(running_example, corpus):
    for term in [running_example] + corpus[:20]:
        index = TermIndex(term)
        for label, state, _ in trajectory(ham.MODES[ham.K_MODE], index, 10**6):
            assert state.dir == ham.DOWN
            assert label in (None, "p1_app", "p2_abs", "var_k")


def test_j_mode_matches_jumping_machine_lengths(running_example, corpus):
    for term in [running_example] + corpus[:20]:
        j = ham.run(term, ham.J_MODE, 10**6)
        direct = ljam.run(term, 10**6)
        assert j.length == direct.length
        assert j.per_label.get("var_j", 0) == direct.per_label.get("var", 0)


def test_k_mode_matches_krivine_lengths(running_example, corpus):
    for term in [running_example] + corpus[:20]:
        k = ham.run(term, ham.K_MODE, 10**6)
        direct = kam.run(term, 10**6)
        assert k.length == direct.length
        assert k.per_label.get("var_k", 0) == direct.per_label.get("var", 0)


def test_length_equation_on_examples(running_example, duplication_example):
    for term, expect in ((running_example, (15, 9, 6)), (duplication_example, (11, 7, 4))):
        j = ham.run(term, ham.J_MODE, 100)
        k = ham.run(term, ham.K_MODE, 100)
        assert (j.length, k.length, j.up_length) == expect
        assert j.length == k.length + j.up_length
        assert j.per_label.get("var_j", 0) == k.per_label.get("var_k", 0)


def test_debug_mode_checks_visited_lemma(running_example, duplication_example, corpus):
    for term in [running_example, duplication_example] + corpus[:30]:
        index = TermIndex(term)
        walk_invariants(ham.MODES[ham.J_MODE], index, 10**6)
        walk_invariants(ham.MODES[ham.K_MODE], index, 10**6)


def test_full_check_on_examples(running_example, duplication_example):
    assert check_ham_jk(running_example, 1000).passed
    assert check_ham_jk(duplication_example, 1000).passed


def test_tape_lift(corpus):
    # appending a tape suffix preserves the label sequence of any run prefix
    from lamrun import tokens as tk

    for term in corpus[:20]:
        index = TermIndex(term)
        for mode in (ham.J_MODE, ham.K_MODE):
            base = [(lbl, s.node, s.dir)
                    for lbl, s, _ in trajectory(ham.MODES[mode], index, 10**6)]
            n = len(base) - 1
            suffix = ham.LoggedClosure(index.top, tk.nil, tk.nil)
            s = ham.HamState(index.top, tk.nil, tk.nil, tk.cons(suffix, tk.nil), ham.DOWN)
            got = [(None, s.node, s.dir)]
            for _ in range(n):
                r = ham.step_mode(index, s, mode)
                assert type(r) is tuple
                label, s, _ = r
                got.append((label, s.node, s.dir))
            assert got[1:] == base[1:]
