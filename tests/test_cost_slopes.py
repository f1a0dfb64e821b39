"""Positions cost O(1) a step: timing guards, run with ``pytest -m scale -s``.

Each guard bounds the ratio of two timings, each the best of 3 (of 9 where two
pieces of work on one input are compared, in three turns of 3 so that a slow
spell of the host hits both), and prints them.  For 4x the input, linear work
reads about 4 and quadratic work 16: the bound of 8 sits between them.
"""
import gc
import io
import time

import pytest

from lamrun import equivalence as eq, harness, kam, liam, multitypes as mt, reporting, siam
from lamrun.syntax import TermIndex, parse, term_size, whnf_trace

from conftest import identity_chain

pytestmark = pytest.mark.scale


@pytest.fixture(autouse=True, scope="module")
def frozen():
    """Keep the test session's objects out of the cyclic collector: a timing
    pays for collecting what its work allocates, not for walking every test."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


def seconds(work, *args):
    """The best of 3 timed calls of ``work(*args)``."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        work(*args)
        times.append(time.perf_counter() - started)
    return min(times)


def best_of_9(*thunks):
    """``seconds`` of each thunk, in three turns, each the best of 9."""
    return map(min, zip(*[[seconds(thunk) for thunk in thunks] for _ in range(3)]))


def slope(what, work, small, large):
    """``work`` on ``small`` and on ``large``, an input 4x its size."""
    small_s, large_s = seconds(work, small), seconds(work, large)
    print(f"{what}: {small_s:.3f} s, then {large_s:.3f} s at 4x; ratio {large_s / small_s:.1f}")
    assert large_s / small_s < 8, (
        f"{what}: 4x the input costs 8x the time or more (linear: 4, quadratic: 16)")


def token_machines(term):
    """The index, then a KAM and an IAM run."""
    index = TermIndex(term)
    reporting.run(kam.MACHINE, index)
    reporting.run(liam.MACHINE, index)


def derivation_side(term):
    """The ★ derivation, a SIAM run on it, and the IAM against the SIAM in lockstep."""
    siam.run(mt.infer_star_derivation(term), term)
    assert eq.check_iam_siam(term).passed


@pytest.mark.parametrize("work", [token_machines, derivation_side], ids=lambda w: w.__name__)
def test_work_is_linear_in_chain_depth(work):
    slope(work.__name__, work, *(parse(identity_chain(d)) for d in (2000, 8000)))


def test_parse_is_linear_in_binder_depth():
    # λx0…λx(k-1). x0 … x0: a variable resolves in O(1) at any binder depth
    slope("parse", parse, *("".join(f"\\x{i}." for i in range(k)) + " x0" * k
                            for k in (2500, 10_000)))


def test_reduction_walks_a_closed_argument_once():
    # (λx1…λx200.λy. y T) I … I, T a closed chain of 20 000 identities: weak head
    # reduction keeps T without walking it once its bound is known, so the 200
    # steps cost a few walks of the term, not one walk each
    binders = "".join(f"\\x{i}." for i in range(1, 201))
    term = parse(f"({binders}\\y. y ({identity_chain(20_000)}))" + " (\\z.z)" * 200)
    reduce_s, walk_s = seconds(whnf_trace, term), seconds(term_size, term)
    print(f"whnf_trace: {reduce_s:.3f} s; term_size: {walk_s:.3f} s; ratio {reduce_s / walk_s:.1f}")
    assert reduce_s / walk_s < 20, "weak head reduction walks the closed argument at every step"


def test_inference_is_linear_in_the_head_spine():
    # r(k,1) has a head spine of k + 1 arguments: a reduction step and its
    # expansion cost nothing per argument left on the spine
    slope("infer_star_derivation on r(k,1)", mt.infer_star_derivation,
          *(harness.family_rkh(k, 1) for k in (2500, 10_000)))


def test_siam_is_linear_in_the_head_spine():
    # a SIAM transition costs nothing per argument left on the spine, though
    # its ★ lies ever deeper in the type
    terms = (harness.family_rkh(k, 1) for k in (2500, 10_000))
    slope("siam.run on r(k,1)", lambda pair: siam.run(*pair),
          *((mt.infer_star_derivation(term), term) for term in terms))


@pytest.mark.parametrize("name", ["iam", "jam", "pam", "kam", "ham-j", "ham-k"])
def test_a_transition_costs_the_same_at_10x_the_term(name):
    def ns_per_step(h):
        index = TermIndex(harness.family_rkh(h, h))
        report = reporting.run(harness.MACHINES[name], index)
        return seconds(reporting.run, harness.MACHINES[name], index) / report.length * 1e9

    small, large = ns_per_step(100), ns_per_step(1000)
    print(f"{name}: r(100,100) {small:.0f} ns/step; r(1000,1000) {large:.0f} ns/step; "
          f"ratio {large / small:.2f}")
    assert large / small < 3, f"{name}: a transition on r(1000,1000) costs 3x that on r(100,100)"


T14 = harness.family_tn(14)
INDEXES = {"iam": lambda: TermIndex(T14),
           "siam": lambda: siam.DerivationIndex(mt.infer_star_derivation(T14), T14)}


@pytest.mark.parametrize("name", INDEXES)
def test_a_run_costs_little_more_than_its_walk(name):
    # the IAM's states count their cells as the machine steps, with no Reach to
    # move; the SIAM's state is a judgement and a ★ number, with no token at all
    machine, index = harness.MACHINES[name], INDEXES[name]()
    walk_s, run_s = best_of_9(lambda: sum(1 for _ in reporting.trajectory(machine, index)),
                              lambda: reporting.run(machine, index))
    print(f"{name} on t_14: trajectory {walk_s:.3f} s; reporting.run {run_s:.3f} s; "
          f"ratio {run_s / walk_s:.2f}")
    assert run_s / walk_s < 1.8, f"{name}: sampling the footprint costs 0.8x the bare walk or more"


def test_a_siam_transition_costs_what_an_iam_one_does():
    # siam.run_index, coverage included, against the IAM's reporting.run on t_14
    index, dindex = INDEXES["iam"](), INDEXES["siam"]()
    iam_s, siam_s = best_of_9(lambda: reporting.run(liam.MACHINE, index),
                              lambda: siam.run_index(dindex))
    iam_ns, siam_ns = (s / reporting.run(liam.MACHINE, index).length * 1e9 for s in (iam_s, siam_s))
    print(f"t_14, ns per transition: IAM {iam_ns:.0f}; SIAM with coverage {siam_ns:.0f}; "
          f"ratio {siam_ns / iam_ns:.2f}")
    assert siam_ns / iam_ns < 1.25, "a SIAM transition costs 1.25x an IAM one or more"


# on a 2-core host, 6 runs each: events 7.1-7.8x and lines 9.0-9.9x the untraced
# run with a frozen event, value-hashed markers and texts encoded at every event;
# 4.3-4.9x and 5.4-5.9x with the constant texts encoded once and identity-hashed markers
EVENTS_BOUND, LINES_BOUND = 6, 7.5


def test_a_traced_event_costs_little_more_than_its_step():
    # an IAM event on t_14, built and dropped, then built and written as a
    # JSONL line: its constant texts are encoded once per run or per node, and
    # its token's entries are looked up by identity
    index = INDEXES["iam"]()
    run = lambda sink=None: reporting.run(liam.MACHINE, index, sink=sink)  # noqa: E731

    def lines():
        write = io.StringIO().write
        run(lambda ev: write(ev.to_line()))

    run_s, events_s, lines_s = best_of_9(run, lambda: run(lambda ev: None), lines)
    events = run().length + 1
    print(f"IAM on t_14, us per event: untraced {run_s / events * 1e6:.2f}; "
          f"events {events_s / events * 1e6:.2f}, ratio {events_s / run_s:.2f}; "
          f"lines {lines_s / events * 1e6:.2f}, ratio {lines_s / run_s:.2f}")
    assert events_s / run_s < EVENTS_BOUND, f"an event costs {EVENTS_BOUND}x a step or more"
    assert lines_s / run_s < LINES_BOUND, f"an event's line costs {LINES_BOUND}x a step or more"
