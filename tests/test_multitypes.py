import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from lamrun import kam, liam, multitypes as mt
from lamrun.syntax import Diverged, Node, TermIndex, Var, parse, whnf_trace
from lamrun.multitypes import (
    STAR,
    Arrow,
    DApp,
    DLam,
    DLamStar,
    DVar,
    DerivationIndex,
    infer_star_derivation,
    star_count,
    star_norm,
    type_str,
    validate,
    weight_iam,
    weight_kam,
)

from conftest import CHILD_ENV


def test_star_norm_examples():
    assert star_norm(STAR) == 1
    assert star_norm(Arrow((), STAR)) == 1
    assert star_norm(Arrow((STAR,), STAR)) == 2
    assert star_norm((STAR, Arrow((STAR,), STAR))) == 3


def test_star_norm_on_shared_types():
    t = Arrow((STAR,), STAR)
    for _ in range(200):
        t = Arrow((t,), t)
    count = star_norm(t)  # outside the assert: a failure report would print t, 2^200 long
    assert count == 2 ** 201


@st.composite
def shared_types(draw):
    """A linear type whose arrows reuse earlier ones: a DAG, not a tree."""
    pool = [STAR]
    for _ in range(draw(st.integers(0, 6))):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=3))
        target = pool[draw(st.integers(0, len(pool) - 1))]
        pool.append(Arrow(tuple(pool[i] for i in picks), target))
    return pool[-1]


def naive_stars(ty) -> int:
    if ty is STAR:
        return 1
    return sum(naive_stars(d) for d in ty.domain) + naive_stars(ty.target)


def unshared_copy(ty):
    if ty is STAR:
        return STAR
    return Arrow(tuple(unshared_copy(d) for d in ty.domain), unshared_copy(ty.target))


@given(shared_types(), shared_types())
def test_cached_star_count(a, b):
    assert star_norm(a) == naive_stars(a)
    assert star_norm((a, b)) == naive_stars(a) + naive_stars(b)
    copy = unshared_copy(a)
    assert copy == a and hash(copy) == hash(a) and type_str(copy) == type_str(a)
    if isinstance(copy, Arrow):
        # the cached count takes no part in equality, hashing or printing
        object.__setattr__(copy, "stars", -1)
        assert copy == a and hash(copy) == hash(a) and type_str(copy) == type_str(a)
        assert "stars" not in repr(copy)
    assert (a == b) == (type_str(a) == type_str(b))


def test_type_str():
    assert type_str(Arrow((STAR,), STAR)) == "[★]→★"


def test_abstraction_types_with_single_star_rule():
    t = parse("\\x.x")
    d = infer_star_derivation(t, 10)
    assert isinstance(d, DLamStar) and d.term_pos == ()
    assert validate(DerivationIndex(d, t)) == []
    assert weight_kam(d) == 0 and weight_iam(d) == 0


def test_ii_derivation_shape():
    t = parse("I I", {"I": "\\z.z"})
    d = infer_star_derivation(t, 10)
    assert isinstance(d, DApp)
    assert isinstance(d.left, DLam) and d.left.domain == (STAR,)
    assert isinstance(d.left.body, DVar)
    assert len(d.rights) == 1 and isinstance(d.rights[0], DLamStar)
    assert d.rh_type is STAR
    assert validate(DerivationIndex(d, t)) == []


def test_ii_weights():
    t = parse("I I", {"I": "\\z.z"})
    d = infer_star_derivation(t, 10)
    assert weight_kam(d) == 3 == kam.run(t, 100).length
    assert weight_iam(d) == 4 == liam.run(t, 100).length


def test_running_example_weights(running_example):
    d = infer_star_derivation(running_example, 10)
    assert validate(DerivationIndex(d, running_example)) == []
    assert star_count(d) == 19
    assert weight_iam(d) == 18 == star_count(d) - 1
    assert weight_kam(d) == 9


def test_duplication_derivation(duplication_example):
    d = infer_star_derivation(duplication_example, 10)
    assert validate(DerivationIndex(d, duplication_example)) == []
    # the argument is typed twice: once as a function, once as a star
    assert len(d.rights) == 2
    assert d.left.domain == (Arrow((STAR,), STAR), STAR)
    assert star_count(d) == 13
    assert weight_iam(d) == 12 and weight_kam(d) == 7
    # head arguments are closed, so every cut subderivation carries no environment
    for right in d.rights:
        assert mt.DerivationIndex(right, right.subject.term).free == []


def test_a_redex_below_the_derivation_spine_is_a_mismatch(running_example):
    """The last step is undone on the normal form's one-judgement spine; a
    hand-made redex one argument deeper has no judgement to expand."""
    steps = whnf_trace(running_example, 10)
    steps[-1] = replace(steps[-1], depth=1)
    with pytest.raises(mt.ExpansionMismatch):
        mt.star_derivation(TermIndex(running_example), steps)


def test_typability_iff_termination(omega, corpus):
    with pytest.raises(Diverged):
        infer_star_derivation(omega, 200)
    for term in corpus[:60]:
        d = infer_star_derivation(term, 10**6)
        assert d.rh_type is STAR
        assert validate(DerivationIndex(d, term)) == []


def _broken_derivations(t, nested):
    """The derivation of ``t`` = (λx.x x) (λy.y) with one fault each; for
    ``outer_binder``, that of ``nested`` = (λy.λx.x y) I I."""
    d = infer_star_derivation(t, 10)
    lam, body = d.left, d.left.body
    other = TermIndex(t)  # its nodes have the right shapes, but are not this index's
    unfilled = lam.domain + (STAR,)  # one more domain entry than there are axioms of x
    n = infer_star_derivation(nested, 10)
    outer = n.left.left  # λy, and in it λx over x y
    inner, spine = outer.body, outer.body.body
    return {
        "db_index": replace(d, left=replace(lam, body=replace(
            body, left=replace(body.left, db_index=1)))),
        "domain": replace(d, left=replace(lam, domain=lam.domain[::-1])),
        "rights": replace(d, rights=d.rights[::-1]),
        "axiom_on_lam": replace(d, left=replace(lam, body=replace(
            body, rights=(replace(body.rights[0], subject=lam.subject),)))),
        "shared": replace(d, rights=(d.rights[0], d.rights[0])),
        "other_index": replace(d, left=replace(lam, body=replace(
            body, rights=(replace(body.rights[0], subject=other.top.fun.body.arg),)))),
        "subterm": lam,
        "unfilled_entry": replace(d, left=replace(
            lam, domain=unfilled, rh_type=Arrow(unfilled, body.rh_type))),
        # the axiom of x bound by λy: λx has no axiom left, λy one axiom too many
        "outer_binder": replace(n, left=replace(n.left, left=replace(outer, body=replace(
            inner, body=replace(spine, left=replace(spine.left, db_index=1)))))),
    }


@pytest.mark.parametrize("fault,problems", [
    ("db_index", ["Fun/Body/Fun: axiom does not sit on a matching variable occurrence",
                  "Fun: domain differs from the bound variable's axiom sequence",
                  "closed subject with a non-empty type environment"]),
    ("domain", ["Fun: conclusion type is not domain -> body type",
                "Fun: domain differs from the bound variable's axiom sequence"]),
    ("rights", ["·: right premise 1 type differs from domain entry",
                "·: right premise 2 type differs from domain entry"]),
    ("axiom_on_lam", ["Fun/Body: right premise 1 is not at the argument position",
                      "Fun: axiom does not sit on a matching variable occurrence"]),
    ("shared", ["·: right premise 2 type differs from domain entry",
                "Arg: node object occurs twice in one derivation",
                "Arg/Body: node object occurs twice in one derivation"]),
    ("other_index", ["Fun/Body: right premise 1 is not at the argument position"]),
    ("subterm", ["Fun: conclusion is not about the root of the subject"]),
    ("unfilled_entry", ["·: argument multiplicity differs from the domain length",
                        "Fun: domain differs from the bound variable's axiom sequence"]),
    ("outer_binder", ["Fun/Fun/Body/Body/Fun: axiom does not sit on a matching variable occurrence",
                      "Fun/Fun/Body: domain differs from the bound variable's axiom sequence",
                      "Fun/Fun: domain differs from the bound variable's axiom sequence"]),
])
def test_validate_reports_a_broken_derivation(duplication_example, running_example, fault,
                                              problems):
    subject = running_example if fault == "outer_binder" else duplication_example
    broken = _broken_derivations(duplication_example, running_example)[fault]
    assert validate(DerivationIndex(broken, subject)) == problems


@pytest.mark.parametrize("fault", ["db_index", "shared", "outer_binder"])
def test_a_second_index_validates_alike(duplication_example, running_example, fault):
    """Links left by an earlier index do not count as met: a shared judgement
    is still skipped once, and reported, when the derivation is indexed again."""
    subject = running_example if fault == "outer_binder" else duplication_example
    broken = _broken_derivations(duplication_example, running_example)[fault]
    first = validate(DerivationIndex(broken, subject))
    assert first and validate(DerivationIndex(broken, subject)) == first


def test_validate_reports_an_open_subject():
    x = Var(0, "x")
    axiom = DVar(Node(x, None, None, 0), 0, STAR)
    assert validate(DerivationIndex(axiom, x)) == [
        "closed subject with a non-empty type environment"]


def test_validate_asks_for_the_very_subject_term():
    # terms compare by identity: an equal term parsed apart is another subject
    text, defs = "I I", {"I": "\\z.z"}
    t = parse(text, defs)
    d = infer_star_derivation(t, 10)
    assert validate(DerivationIndex(d, t)) == []
    assert validate(DerivationIndex(d, parse(text, defs))) == [
        "·: conclusion is not about the root of the subject"]


def test_env_of_closed_derivation_is_empty(running_example):
    d = infer_star_derivation(running_example, 10)
    assert mt.DerivationIndex(d, running_example).free == []


def test_axiom_order_matches_domains(duplication_example):
    d = infer_star_derivation(duplication_example, 10)
    # left-to-right axioms of the binder carry the domain types in order
    binder = d.left
    axioms = [n for n in mt.iter_nodes(binder.body) if isinstance(n, DVar)
              and n.db_index == 0]
    assert tuple(a.rh_type for a in axioms) == binder.domain


def test_weight_equality_on_corpus_sample(corpus):
    for term in corpus[:40]:
        d = infer_star_derivation(term, 10**6)
        assert weight_kam(d) == kam.run(term, 10**6).length
        assert weight_iam(d) == liam.run(term, 10**6).length


def test_terms_of_growing_identity_family():
    from lamrun.harness import family_tn
    for n in range(1, 7):
        t = family_tn(n)
        d = infer_star_derivation(t, 100)
        assert validate(DerivationIndex(d, t)) == []
        assert weight_kam(d) == kam.run(t, 10**5).length
        assert weight_iam(d) == liam.run(t, 10**5).length


def test_derivation_json_and_pretty(running_example):
    d = infer_star_derivation(running_example, 10)
    doc = mt.derivation_to_json(d)
    assert doc["rule"] == "app" and doc["type"] == "★"
    text = mt.derivation_pretty(d)
    assert "★" in text and "[λ★]" in text


def test_derivation_walks_need_no_recursion_headroom():
    """Inference, validation, binder numbering and JSON output walk a 1 200-deep
    derivation under Python's default recursion limit."""
    script = """
import sys
from lamrun import multitypes as mt
from lamrun.syntax import parse
sys.setrecursionlimit(1000)
text = "\\\\z.z"
for _ in range(1200):
    text = f"(\\\\x.x) ({text})"
term = parse(text)
d = mt.infer_star_derivation(term)
index = mt.DerivationIndex(d, term)
assert mt.validate(index) == [] and index.free == []
assert mt.derivation_to_json(d)["rule"] == "app"
print(mt.weight_kam(d), mt.weight_iam(d))
"""
    done = subprocess.run([sys.executable, "-c", script], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["3600", "4800"]
