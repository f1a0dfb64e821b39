"""A token machine's memory is linear in the depth of an identity chain.

A run's token holds O(depth) cells on ``(λx.x) (… (λz.z))``, so its
``tracemalloc`` peak grows about 4x for 4x the depth.  Anything stored per
cell that grows with depth, such as a count of a shared token's unfolded
size, makes it quadratic: 16x.
"""
import tracemalloc

import pytest

from lamrun import harness, reporting
from lamrun.syntax import TermIndex, parse

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
