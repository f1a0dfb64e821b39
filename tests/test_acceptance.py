"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the line per criterion.
"""
import time
from contextlib import contextmanager

import test_golden_traces as golden
import test_siam as siam_tests
from lamrun import equivalence as eq, harness, kam, liam, ljam, lpam, multitypes as mt, siam
from lamrun.reporting import trajectory
from lamrun.syntax import term_size


@contextmanager
def criterion(num, name, budget_s):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.time() - start:.2f}s)")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_golden_traces(running_example, duplication_example):
    with criterion(1, "golden traces", 1.0):
        golden.test_iam_running_example_trace(running_example)
        golden.test_jam_running_example_trace(running_example)
        golden.test_kam_running_example_trace(running_example)
        golden.test_pam_running_example_trace(running_example)
        golden.test_iam_duplication_trace(duplication_example)
        golden.test_jam_duplication_trace(duplication_example)
        golden.test_kam_duplication_trace(duplication_example)
        golden.test_pam_duplication_trace(duplication_example)
        golden.test_siam_duplication_trace(duplication_example)


def test_criterion_2_siam_visit_order(running_example):
    with criterion(2, "derivation-walk visit order", 1.0):
        deriv = mt.infer_star_derivation(running_example, 100)
        dindex = siam.DerivationIndex(deriv, running_example)
        rows = [
            ("/".join(s.node.term_pos), siam.tpath_str(s.node.rh_type, s.star), s.dir)
            for _, s, _ in trajectory(siam.MACHINE, dindex, 100)
        ]
        assert rows == siam_tests.EXPECTED_RUNNING_ORDER
        assert len(rows) == 19
        report, coverage = siam.run(deriv, running_example, 100)
        assert report.length == 18
        assert coverage.hamiltonian


def test_criterion_3_weight_theorems(corpus):
    with criterion(3, "weight theorems", 60.0):
        terms = list(corpus) + [harness.family_tn(n) for n in range(1, 11)]
        assert len(corpus) >= 50
        for term in terms:
            deriv = mt.infer_star_derivation(term, 10**6)
            assert mt.weight_kam(deriv) == kam.run(term, 10**7).length
            assert mt.weight_iam(deriv) == liam.run(term, 10**7).length


def test_criterion_4_jk_relationship(corpus):
    with criterion(4, "jumping/Krivine relationship", 30.0):
        for term in corpus:
            report = eq.check_ham_jk(term, 10**7)
            assert report.passed and not report.inconclusive
            j = ljam.run(term, 10**7)
            k = kam.run(term, 10**7)
            assert j.length == k.length + j.up_length
            assert j.per_label.get("var", 0) == k.per_label.get("var", 0)


def test_criterion_5_jam_pam_bisimulation(corpus):
    with criterion(5, "jumping/pointer strong bisimulation", 30.0):
        for term in corpus:
            report = eq.check_jam_pam(term, 10**7)
            assert report.passed and not report.inconclusive
            assert ljam.run(term, 10**7).length == lpam.run(term, 10**7).length


def test_criterion_6_iam_jam_relationship(corpus):
    with criterion(6, "interaction/jumping relationship", 60.0):
        for term in corpus:
            report = eq.check_iam_jam(term, 10**7)
            assert report.passed and not report.inconclusive
            assert report.details["jam_length"] <= report.details["iam_length"]
            assert report.details["jam_vars"] <= report.details["iam_vars"]


# regression baseline, measured once: lengths are 2^(n+1) - 4 and 3(n - 1)
GAP_IAM = [0, 4, 12, 28, 60, 124, 252, 508, 1020, 2044, 4092, 8188]
GAP_KAM = [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33]


def test_criterion_7_exponential_gap():
    with criterion(7, "exponential gap", 30.0):
        iam_lengths = []
        kam_lengths = []
        for n in range(1, 13):
            t = harness.family_tn(n)
            iam_lengths.append(liam.run(t, 10**7).length)
            kam_lengths.append(kam.run(t, 10**7).length)
        assert iam_lengths == GAP_IAM
        assert kam_lengths == GAP_KAM
        ratios = [i / k if k else 0.0 for i, k in zip(iam_lengths, kam_lengths)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        t12 = harness.family_tn(12)
        assert iam_lengths[11] >= 2 * iam_lengths[10] - 8 * term_size(t12)


def test_criterion_8_space_proposition():
    with criterion(8, "space proposition", 5.0):
        t = harness.family_rkh(2, 4)
        iam_report = liam.run(t, 10**6)
        jam_report = ljam.run(t, 10**6)
        assert iam_report.peak.marker_count == 6  # h + k
        assert jam_report.peak.marker_count == 4  # max(h, k + 1)
        assert iam_report.peak_marker_lp == 2
        assert jam_report.peak_marker_lp == 2
        for k in range(1, 5):
            for h in range(1, 5):
                term = harness.family_rkh(k, h)
                pi = liam.run(term, 10**6).peak.marker_count
                pj = ljam.run(term, 10**6).peak.marker_count
                assert pi == h + k
                assert pj == max(h, k + 1)
                assert pi - pj == (h + k) - max(h, k + 1)


def test_criterion_9_invariant_suites(corpus):
    with criterion(9, "invariant suites", 120.0):
        for term in corpus:
            report = eq.check_invariants_suite(term, 10**7)
            assert report.passed and not report.inconclusive, report.details
        for term in corpus:
            deriv = mt.infer_star_derivation(term, 10**7)
            _, coverage = siam.run(deriv, term, 10**7)
            assert coverage.hamiltonian and coverage.repeated == 0
        quad = eq.check_quadratic_bound(list(corpus), 10**7)
        assert quad.passed and quad.details["checked"] == len(corpus)
