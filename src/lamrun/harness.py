"""Benchmark families, corpus generation, and cross-machine comparison rows."""
from __future__ import annotations

import random
import time
from typing import Optional

from . import ham, kam, liam, ljam, lpam, multitypes as mt, siam
from .syntax import (
    DEFAULT_FUEL,
    App,
    Diverged,
    Lam,
    Term,
    Var,
    pretty,
    term_size,
    whnf_steps,
)

IDENTITY = Lam("x", Var(0, "x"))

# the machine registry: name -> Machine
MACHINES: dict = {m.name: m for m in (
    liam.MACHINE,
    ljam.MACHINE,
    lpam.MACHINE,
    kam.MACHINE,
    ham.MODES[ham.J_MODE],
    ham.MODES[ham.K_MODE],
    siam.MACHINE,
)}


def run_machine(name: str, term: Term, fuel: int = DEFAULT_FUEL, **kw):
    return MACHINES[name].launch(term, fuel, **kw)


def family_tn(n: int) -> Term:
    """Left-nested identities: the first member is the identity itself."""
    if n < 1:
        raise ValueError("the family starts at 1")
    term: Term = IDENTITY
    for _ in range(n - 1):
        term = App(term, IDENTITY)
    return term


def family_rkh(k: int, h: int) -> Term:
    """Space-separating family with identity fillers.

    An abstraction block over k variables and a head variable applied to a
    deep abstraction tower, fed k identity arguments and one argument that
    applies its own variable to h identities.
    """
    if k < 1 or h < 1:
        raise ValueError("both parameters start at 1")
    tower: Term = Lam("z", Var(0, "z"))
    for i in range(h, 0, -1):
        tower = Lam(f"z{i}", tower)
    body: Term = App(Var(0, "y"), tower)
    block: Term = Lam("y", body)
    for i in range(k, 0, -1):
        block = Lam(f"x{i}", block)
    spender: Term = Var(0, "w")
    for _ in range(h):
        spender = App(spender, IDENTITY)
    spender = Lam("w", spender)
    term: Term = block
    for _ in range(k):
        term = App(term, IDENTITY)
    return App(term, spender)


# ---------------------------------------------------------------------------
# Corpus generation


PROBE_WHNF_FUEL = 300
PROBE_IAM_FUEL = 25_000
PROBE_SIZE_CAP = 5_000


def _gen_term(rng: random.Random, budget: int, depth: int) -> Term:
    if budget <= 1:
        if depth > 0:
            i = rng.randrange(depth)
            return Var(i, f"x{depth - 1 - i}")
        return Lam("x0", Var(0, "x0"))
    roll = rng.random()
    if depth == 0:
        kind = "lam" if roll < 0.25 else "app"
    elif roll < 0.3:
        kind = "var"
    elif roll < 0.6:
        kind = "lam"
    else:
        kind = "app"
    if kind == "var":
        i = rng.randrange(depth)
        return Var(i, f"x{depth - 1 - i}")
    if kind == "lam":
        return Lam(f"x{depth}", _gen_term(rng, budget - 1, depth + 1))
    left = rng.randint(1, budget - 1)
    return App(_gen_term(rng, left, depth), _gen_term(rng, budget - 1 - left, depth))


def probe_normalizes(term: Term) -> bool:
    """Probe: head-normalizes quickly, without size blowup, and the slowest
    machine completes; keeps every downstream run within test budgets."""
    size = term_size(term)
    for count, step in enumerate(whnf_steps(term), 1):
        k = len(step.substituted_occurrences)  # the redex and k variables go, k copies come
        size += (k - 1) * term_size(step.arg) - k - 2
        if count == PROBE_WHNF_FUEL or size > PROBE_SIZE_CAP:
            return False
    return liam.run(term, PROBE_IAM_FUEL).outcome == "final"


def gen_corpus(seed: int, count: int, max_size: int) -> list:
    """Seed-reproducible closed terms that normalize within the probe fuel."""
    rng = random.Random(seed)
    kept = []
    for _ in range(count):
        candidate = _gen_term(rng, max_size, 0)
        if term_size(candidate) <= max_size and probe_normalizes(candidate):
            kept.append(candidate)
    return kept


# ---------------------------------------------------------------------------
# Comparison rows


def compare(
    term: Term,
    fuel: int = DEFAULT_FUEL,
    machines: Optional[list] = None,
    with_types: bool = False,
) -> dict:
    """Run the requested machines on one term; fuel exhaustion is recorded, not fatal."""
    names = machines or ["iam", "jam", "pam", "kam"]
    row: dict = {"term": pretty(term), "size": term_size(term), "machines": {}}
    deriv = None  # the ★ derivation, inferred once for SIAM and the weights
    if with_types or "siam" in names:
        try:
            deriv = mt.infer_star_derivation(term, fuel)
        except Diverged:
            pass
    for name in names:
        started = time.perf_counter()
        if name != "siam":
            report = run_machine(name, term, fuel)
        elif deriv is not None:
            report, _ = siam.run(deriv, term, fuel)
        else:
            row["machines"][name] = {"outcome": "fuel"}
            continue
        entry = report.to_json(with_term=False)
        entry["wallMs"] = round((time.perf_counter() - started) * 1000, 3)
        row["machines"][name] = entry
    if with_types:
        row["weights"] = None if deriv is None else {
            "w_kam": mt.weight_kam(deriv),
            "w_iam": mt.weight_iam(deriv),
            "stars": mt.star_count(deriv),
        }
    return row
