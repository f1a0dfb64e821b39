"""A machine's memory is linear in the depth of its input, and every command
runs within 400 MB on inputs 10 000 and 40 000 levels deep.

A run's token holds O(depth) cells on the identity chain ``(λx.x) (… (λz.z))``
and on the head spine ``(λx1.λx2.λy0…λy(n−1).x1) I … I``, so its
``tracemalloc`` peak grows about 4x for 4x the depth.  Anything stored per
cell that grows with depth, such as a count of a shared token's unfolded
size, makes it quadratic: 16x.  The same holds for the chain's ★ derivation,
whose judgements carry their own links, and for the SIAM's walk of it.

Tier-1 measures depth 1 000 → 4 000 against a bound of 6; ``pytest -m scale
-s`` measures 5 000 → 20 000 against 8, prints the figures, and runs each
command in a child process under ``RLIMIT_AS`` (``ulimit -v 400000``).
"""
import resource
import subprocess
import sys
import tracemalloc

import pytest

from lamrun import equivalence as eq, harness, multitypes as mt, reporting, siam
from lamrun.syntax import TermIndex, parse, pretty, whnf_trace

from conftest import CHILD_ENV, head_spine, identity_chain, traced_peak

TIER1, SCALE = ((1000, 4000), 6), ((5000, 20_000), 8)  # depths, bound
RUNS = [pytest.param(name, shape, *tier, marks=marks, id=name + suffix)
        for shape, kind in ((identity_chain, ""), (head_spine, "-spine"))
        for name in ("iam", "jam", "pam", "kam", "ham-j", "ham-k")
        for tier, marks, suffix in ((TIER1, (), kind), (SCALE, pytest.mark.scale, kind + "-scale"))]


def depth_ratio(what, peak, depths, bound):
    small, large = map(peak, depths)
    print(f"{what}: peak {small / 2**20:.2f} MB at depth {depths[0]}; "
          f"{large / 2**20:.2f} MB at depth {depths[1]}; ratio {large / small:.2f}")
    assert large / small < bound, f"{what}: 4x the depth takes {bound}x the memory or more"


@pytest.mark.parametrize("name, shape, depths, bound", RUNS)
def test_run_memory_is_linear_in_chain_depth(name, shape, depths, bound):
    """An untraced ``reporting.run`` on the chain, and on the spine."""
    machine = harness.MACHINES[name]
    depth_ratio(f"{name} on {shape.__name__}", lambda depth: traced_peak(
        reporting.run, machine, TermIndex(parse(shape(depth))))[1], depths, bound)


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


def siam_peak(whole, depth):
    """The ``tracemalloc`` peak of an untraced SIAM run on the chain's ★
    derivation; if ``whole``, of its inference and its index too."""
    term = parse(identity_chain(depth))
    indexed = lambda: siam.DerivationIndex(mt.infer_star_derivation(term), term)  # noqa: E731
    if whole:
        return traced_peak(lambda: siam.run_index(indexed()))[1]
    return traced_peak(siam.run_index, indexed())[1]


@pytest.mark.parametrize("whole, depths, bound", [
    pytest.param(False, *TIER1, id="walk"),
    pytest.param(True, *TIER1, id="derivation-side"),
    pytest.param(True, *SCALE, marks=pytest.mark.scale, id="derivation-side-scale")])
def test_siam_memory_is_linear_in_chain_depth(whole, depths, bound):
    what = "siam: derivation, index and walk" if whole else "siam walk"
    depth_ratio(what, lambda depth: siam_peak(whole, depth), depths, bound)


COMMANDS = ["parse", *(f"run --machine {m}" for m in harness.MACHINES), "compare",
            "types --weights", *(f"check {c}" for c in eq.CHECKERS)]
# (file, command, exit code, timeout in s); unfolded, the traces take gigabytes
GUARD = ([(file, command, 0, None) for file in ("chain10k", "spine10k") for command in COMMANDS]
         + [("chain40k", f"check {c}", 0, None)
            for c in ("ham-jk", "invariants", "weights", "quadratic")]
         + [("twotwotwo", f"run --machine {m} --trace jsonl", 0, 20) for m in harness.MACHINES]
         + [("corpus52", "run --machine ham-j --trace jsonl", 0, 20),
            # t_30 has 2^31 − 3 ★s: the SIAM's coverage keeps the 100 001 it can reach
            ("t30", "run --machine siam --fuel 100000", 2, None),
            ("t30", "compare --machines kam,siam --fuel 100000", 2, None)])
LIMIT = 400_000 * 1024  # bytes, as ``ulimit -v 400000``


@pytest.fixture(scope="module")
def lam_files(tmp_path_factory, corpus):
    folder = tmp_path_factory.mktemp("lam")
    for name, text in {
        "chain10k": identity_chain(10_000), "chain40k": identity_chain(40_000),
        "spine10k": head_spine(10_000), "twotwotwo": "(\\f.\\x.f (f x)) " * 3 + "(\\z.z) (\\z.z)",
        "corpus52": pretty(corpus[52]), "t30": pretty(harness.family_tn(30)),
    }.items():
        (folder / f"{name}.lam").write_text(text + "\n", encoding="utf-8")
    return folder


@pytest.mark.scale
@pytest.mark.parametrize("file, command, code, timeout", GUARD,
                         ids=[f"{file}: {command}" for file, command, *_ in GUARD])
def test_a_command_runs_within_400_mb(lam_files, file, command, code, timeout):
    """Each command in a child process whose address space is capped."""
    done = subprocess.run(
        [sys.executable, "-m", "lamrun.cli", *command.split(), f"@{lam_files / file}.lam"],
        env=CHILD_ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=timeout, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT)))
    assert done.returncode == code, done.stderr[-2000:]
