"""A machine's memory is linear in the depth of an identity chain.

A run's token holds O(depth) cells on ``(λx.x) (… (λz.z))``, so its
``tracemalloc`` peak grows about 4x for 4x the depth.  Anything stored per
cell that grows with depth, such as a count of a shared token's unfolded
size, makes it quadratic: 16x.  The same holds for the SIAM's walk of the
chain's ★ derivation, whose judgements carry their own links.
"""
import tracemalloc

import pytest

from lamrun import harness, multitypes as mt, reporting, siam
from lamrun.syntax import TermIndex, parse, whnf_trace

from conftest import identity_chain


def peak_bytes(name, depth):
    """The ``tracemalloc`` peak of an untraced run of ``name`` on the chain."""
    index = TermIndex(parse(identity_chain(depth)))
    tracemalloc.start()
    try:
        reporting.run(harness.MACHINES[name], index)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["iam", "jam", "pam", "kam", "ham-j", "ham-k"])
def test_run_memory_is_linear_in_chain_depth(name):
    small, large = peak_bytes(name, 1000), peak_bytes(name, 4000)
    assert large / small < 6, f"{name}: {small} B at depth 1000, {large} B at depth 4000"


def test_a_judgement_and_its_links_take_at_most_300_bytes():
    """The ★ derivation of the depth-4 000 chain and its index: 12 001
    judgements, each holding its links in slots (about 250 B each, types
    and the index's preorder included)."""
    term = parse(identity_chain(4000))
    index, steps = TermIndex(term), whnf_trace(term)
    tracemalloc.start()
    try:
        deriv = mt.star_derivation(index, steps)
        dindex = siam.DerivationIndex(deriv, term)
        size = tracemalloc.get_traced_memory()[0]  # while ``dindex`` is alive
    finally:
        tracemalloc.stop()
    judgements = sum(1 for _ in mt.iter_nodes(dindex.deriv))
    assert judgements == 12_001
    assert size / judgements <= 300, f"{size / judgements:.0f} B per judgement"


def run_index_peak(depth):
    """The ``tracemalloc`` peak of an untraced SIAM run on the chain's ★ derivation."""
    term = parse(identity_chain(depth))
    dindex = siam.DerivationIndex(mt.infer_star_derivation(term), term)
    tracemalloc.start()
    try:
        siam.run_index(dindex)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_siam_memory_is_linear_in_chain_depth():
    small, large = run_index_peak(1000), run_index_peak(4000)
    assert large / small < 6, f"siam: {small} B at depth 1000, {large} B at depth 4000"
