"""The footprint a run records at each state equals one counted anew.

Runs keep ``deepCells`` up to date by reference counts, or, for the IAM,
whose token never shares a cell, count it in the state as they step, and
read marker counts off the cells; the reference here walks every token anew
at every state and scans its tape.
"""
from dataclasses import replace

import pytest

from lamrun import harness, reporting, tokens as tk
from lamrun.syntax import TermIndex

from conftest import church_ii, reference_cells


def scan(xs):
    """(entries, markers) of a list."""
    items = list(tk.iterate(xs))
    return len(items), sum(isinstance(item, tk.Marker) for item in items)


def reference_footprint(name, s):
    if name in ("iam", "jam", "pam"):
        log = tk.from_list(s.history.entries()) if name == "pam" else s.log
        tape, markers = scan(s.tape)
        return scan(log)[0] + tape - markers, markers, reference_cells(log, s.tape)
    if name == "kam":
        return scan(s.env)[0] + scan(s.stack)[0], 0, reference_cells(s.env, s.stack)
    return scan(s.log)[0] + scan(s.tape)[0], 0, reference_cells(s.log, s.env, s.tape)


TOKEN_MACHINES = ("iam", "jam", "pam", "kam", "ham-j", "ham-k")


def assert_exact(term, trace=False):
    """Every footprint each token machine's run samples, against the reference,
    the IAM's sampled with no ``Reach``; with ``trace``, also those its trace
    events carry."""
    index = TermIndex(term)
    for name in TOKEN_MACHINES:
        machine = harness.MACHINES[name]
        sampled = []

        def record(s, reach):
            fp = machine.footprint(s, None if name == "iam" else reach)
            sampled.append((s, fp))
            return fp

        events: list = []
        report = reporting.run(replace(machine, footprint=record), index,
                               sink=events.append if trace else None)
        assert len(sampled) == report.length + 1
        for step, (s, fp) in enumerate(sampled):
            assert type(fp[1]) is int
            assert fp == reference_footprint(name, s), (name, step)
        assert report.peak.deep_cells == max(fp[2] for _, fp in sampled)
        if trace:
            assert [e.footprint for e in events] == [fp for _, fp in sampled]


@pytest.mark.parametrize("term", [harness.family_tn(n) for n in range(1, 9)]
                         + [harness.family_rkh(k, h) for k in (1, 2, 3) for h in (1, 3)]
                         + [church_ii(40)],
                         ids=[f"t_{n}" for n in range(1, 9)]
                         + [f"r({k},{h})" for k in (1, 2, 3) for h in (1, 3)] + ["c_40 I I"])
def test_recorded_footprints_are_exact(term):
    assert_exact(term)


@pytest.mark.parametrize("n", [4, 8])
def test_traced_footprints_are_exact(n):
    assert_exact(harness.family_tn(n), trace=True)


def test_recorded_footprints_are_exact_on_the_corpus(corpus):
    for term in corpus:
        assert_exact(term)
