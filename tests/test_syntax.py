from itertools import islice, takewhile

import pytest
from hypothesis import given, settings, strategies as st

from lamrun import harness
from lamrun.syntax import (
    ARG,
    BODY,
    FUN,
    App,
    DefinitionCycle,
    Diverged,
    Lam,
    LamError,
    LamSyntaxError,
    TermIndex,
    UnboundIdentifier,
    Var,
    is_closed,
    load_definitions,
    parse,
    path_str,
    pretty,
    term_size,
    whnf_steps,
    whnf_trace,
)

from conftest import canonical_pretty, replay, resolve, skeleton, written

I_DEFS = {"I": "\\z.z"}


def test_parse_identity():
    assert written(parse("\\x.x")) == written(Lam("x", Var(0, "x")))


def test_parse_unicode_lambda_and_sugar():
    assert skeleton(parse("λx y.x")) == skeleton(parse("\\x.\\y.x"))


def test_application_left_associative():
    t = parse("\\x.x x x")
    body = t.body
    assert isinstance(body, App) and isinstance(body.fun, App)


def test_lambda_extends_right():
    assert skeleton(parse("\\x.x \\y.y")) == skeleton(parse("\\x.x (\\y.y)"))


def test_parse_running_example(running_example):
    q = Lam("y", Lam("x", App(Var(0, "x"), Var(1, "y"))))
    i = Lam("z", Var(0, "z"))
    assert skeleton(running_example) == skeleton(App(App(q, i), i))


def test_parse_duplication_example(duplication_example):
    expected = App(Lam("x", App(Var(0, "x"), Var(0, "x"))), Lam("y", Var(0, "y")))
    assert written(duplication_example) == written(expected)


def test_definitions_shadowed_by_binders():
    t = parse("\\I.I", I_DEFS)
    assert written(t) == written(Lam("I", Var(0, "I")))


def test_unbound_identifier():
    with pytest.raises(UnboundIdentifier):
        parse("x y")


def test_definition_cycle():
    with pytest.raises(DefinitionCycle):
        parse("A", {"A": "B", "B": "A"})


def test_nested_definitions_expand():
    t = parse("K I", {"K": "\\a.\\b.a", "I": "\\z.z"})
    assert is_closed(t)


def test_syntax_error_position():
    with pytest.raises(LamSyntaxError):
        parse("(\\x.x")


# (text, definitions, exception type, message, offset of a syntax error): a
# bad character is reported first, then the first syntax error, then the first
# error of a name
PARSE_ERRORS = [
    ("\\x.x $", None, LamSyntaxError, "unexpected character '$' (at offset 5)", 5),
    ("x @ y", None, LamSyntaxError, "unexpected character '@' (at offset 2)", 2),
    ("\\x.x 1", None, LamSyntaxError, "unexpected character '1' (at offset 5)", 5),
    ("\\x.x ab1 _", None, LamSyntaxError, "unexpected character '_' (at offset 9)", 9),
    (") \\x.x #", None, LamSyntaxError, "unexpected character '#' (at offset 7)", 7),
    ("y ) ~", None, LamSyntaxError, "unexpected character '~' (at offset 4)", 4),
    ("\\x.x\t!", None, LamSyntaxError, "unexpected character '!' (at offset 5)", 5),
    ("\\.x", None, LamSyntaxError, "expected at least one binder after lambda (at offset 1)", 1),
    ("λ.x", None, LamSyntaxError, "expected at least one binder after lambda (at offset 1)", 1),
    ("\\x x", None, LamSyntaxError, "expected dot, found '' (at offset 4)", 4),
    ("\\x", None, LamSyntaxError, "expected dot, found '' (at offset 2)", 2),
    ("()", None, LamSyntaxError, "unexpected token ')' (at offset 1)", 1),
    ("(\\x.x", None, LamSyntaxError, "expected rparen, found '' (at offset 5)", 5),
    ("\\x.x)", None, LamSyntaxError, "expected eof, found ')' (at offset 4)", 4),
    ("x . y", None, LamSyntaxError, "expected eof, found '.' (at offset 2)", 2),
    (".", None, LamSyntaxError, "unexpected token '.' (at offset 0)", 0),
    ("\\x.x . y", None, LamSyntaxError, "expected eof, found '.' (at offset 5)", 5),
    ("\\x.(.)", None, LamSyntaxError, "unexpected token '.' (at offset 4)", 4),
    ("", None, LamSyntaxError, "unexpected token '' (at offset 0)", 0),
    ("   ", None, LamSyntaxError, "unexpected token '' (at offset 3)", 3),
    ("(", None, LamSyntaxError, "unexpected token '' (at offset 1)", 1),
    (")", None, LamSyntaxError, "unexpected token ')' (at offset 0)", 0),
    ("\\x.", None, LamSyntaxError, "unexpected token '' (at offset 3)", 3),
    ("(\\x.)", None, LamSyntaxError, "unexpected token ')' (at offset 4)", 4),
    ("\\x y . x (", None, LamSyntaxError, "unexpected token '' (at offset 10)", 10),
    ("x y", None, UnboundIdentifier, "unbound identifier: 'x'", None),
    ("(\\x.x) x", None, UnboundIdentifier, "unbound identifier: 'x'", None),
    ("\\x.(\\y.y) y", None, UnboundIdentifier, "unbound identifier: 'y'", None),
    ("y )", None, LamSyntaxError, "expected eof, found ')' (at offset 2)", 2),
    ("\\x.y (", None, LamSyntaxError, "unexpected token '' (at offset 6)", 6),
    ("y \\x.", None, LamSyntaxError, "unexpected token '' (at offset 5)", 5),
    ("A", {"A": "B", "B": "A"}, DefinitionCycle, "definition cycle: A -> B -> A", None),
    ("A", {"A": "\\x.y"}, UnboundIdentifier, "unbound identifier: 'y'", None),
    ("A", {"A": "(\\x.x"}, LamSyntaxError, "expected rparen, found '' (at offset 5)", 5),
    ("A )", {"A": "("}, LamSyntaxError, "expected eof, found ')' (at offset 2)", 2),
    ("A B", {"A": "\\x.q", "B": "\\x.x)"}, UnboundIdentifier, "unbound identifier: 'q'", None),
    ("B A", {"A": "A"}, UnboundIdentifier, "unbound identifier: 'B'", None),
]


@pytest.mark.parametrize("text,defs,kind,message,offset", PARSE_ERRORS)
def test_parse_errors_are_pinned(text, defs, kind, message, offset):
    with pytest.raises(LamError) as info:
        parse(text, defs)
    assert type(info.value) is kind
    assert str(info.value) == message
    assert getattr(info.value, "position", None) == offset


def test_binders_resolve_at_any_depth():
    # λx0…λx(k-1). x0 … x0: every occurrence of x0 is bound by the outermost binder
    k = 3000
    term = parse("".join(f"\\x{i}." for i in range(k)) + " ".join(["x0"] * k))
    for i in range(k):
        assert isinstance(term, Lam) and term.name == f"x{i}"
        term = term.body
    occurrences = []
    while isinstance(term, App):
        occurrences.append(term.arg)
        term = term.fun
    occurrences.append(term)
    assert list(map(written, occurrences)) == [written(Var(k - 1, "x0"))] * k
    # the innermost binder of a name binds it: binder i is named x(i mod 3)
    term = parse("".join(f"\\x{i % 3}." for i in range(k)) + "x0 x1 x2")
    for _ in range(k):
        term = term.body
    assert written(term) == written(App(App(Var(2, "x0"), Var(1, "x1")), Var(0, "x2")))


def test_load_definitions():
    defs = load_definitions("I = \\z.z;\n# comment\nK = \\a.\\b.a;")
    assert set(defs) == {"I", "K"}


# ---------------------------------------------------------------------------
# Paths and positions


def test_resolve_empty_path(running_example):
    sub, level = resolve(running_example, ())
    assert sub == running_example and level == 0


def test_resolve_head_variable(running_example):
    sub, level = resolve(running_example, (FUN, FUN, BODY, BODY, FUN))
    assert written(sub) == written(Var(0, "x")) and level == 0


def test_resolve_argument_level(duplication_example):
    sub, level = resolve(duplication_example, (ARG,))
    assert isinstance(sub, Lam) and level == 1


def test_resolve_invalid_path(running_example):
    with pytest.raises(ValueError):
        resolve(running_example, (BODY,))


def test_binder_of_identity():
    top = TermIndex(parse("\\x.x")).top
    assert top.body.binder is top and top.body.inner == 0


def test_binder_of_duplication(duplication_example):
    lam = TermIndex(duplication_example).top.fun
    for var, inner in ((lam.body.fun, 0), (lam.body.arg, 1)):
        assert var.binder is lam and var.inner == inner


def test_path_string_roundtrip():
    assert path_str((FUN, BODY, ARG)) == "Fun/Body/Arg"
    assert path_str(()) == ""


def test_level_counts_arg_steps(running_example):
    index = TermIndex(running_example)
    assert len(index.nodes) == index.size and index.nodes[0] is index.top
    for n in index.nodes:
        assert (n.term, n.level) == resolve(running_example, n.path)
        assert n.level == sum(1 for s in n.path if s == ARG)
        assert n.parent is None or getattr(n.parent, n.side.lower()) is n


# ---------------------------------------------------------------------------
# Weak head reduction


def test_whnf_of_abstraction():
    assert whnf_trace(parse("\\x.x")) == []


def test_whnf_running_example(running_example):
    steps = list(replay(running_example, whnf_trace(running_example, 100)))
    assert len(steps) == 3
    last, _, after = steps[-1]
    assert isinstance(after, Lam)
    assert last.depth == 0 and last.head is after


def test_whnf_diverges_on_omega(omega):
    with pytest.raises(Diverged):
        whnf_trace(omega, 100)


def test_substituted_occurrences_are_argument_copies(running_example, duplication_example):
    for term in (running_example, duplication_example):
        for step, before, after in replay(term, whnf_trace(term, 100)):
            redex = before
            for _ in range(step.depth):
                redex = redex.fun
            for occ in step.substituted_occurrences:
                assert resolve(after, (FUN,) * step.depth + occ)[0] == redex.arg


def test_duplication_substitutes_two_copies(duplication_example):
    first = whnf_trace(duplication_example, 10)[0]
    assert len(first.substituted_occurrences) == 2


# ---------------------------------------------------------------------------
# Printer round-trips


def closed_terms(max_depth=5):
    def build(depth, binders):
        leaves = []
        if binders:
            leaves.append(st.integers(0, binders - 1).map(lambda i: Var(i, f"v{i}")))
        if depth == 0:
            if not leaves:
                return st.just(Lam("a", Var(0, "a")))
            return st.one_of(leaves)
        sub = build(depth - 1, binders)
        under = build(depth - 1, binders + 1)
        return st.one_of(
            leaves
            + [
                st.tuples(under).map(lambda b: Lam(f"b{binders}", b[0])),
                st.tuples(sub, sub).map(lambda fa: App(fa[0], fa[1])),
            ]
        )

    return build(max_depth, 0).filter(is_closed)


@given(closed_terms())
@settings(max_examples=150, deadline=None)
def test_parse_print_identity(term):
    assert skeleton(parse(canonical_pretty(term))) == skeleton(term)


def test_parse_print_identity_on_corpus(corpus):
    for term in corpus:
        assert skeleton(parse(canonical_pretty(term))) == skeleton(term)


def test_pretty_uses_display_names(running_example):
    assert pretty(running_example) == "(λy.λx.x y) (λz.z) (λz.z)"


def test_pretty_prints_a_hole_for_the_subterm_at_a_path(running_example):
    assert pretty(running_example, ()) == "⟨·⟩"
    assert pretty(running_example, (FUN, ARG)) == "(λy.λx.x y) ⟨·⟩ (λz.z)"
    assert pretty(running_example, (FUN, FUN, BODY, BODY, ARG)) == "(λy.λx.x ⟨·⟩) (λz.z) (λz.z)"


def naive_contract(body, arg, depth, path):
    """Recursive reference: ``body`` with ``arg`` for the variable bound at
    ``depth`` above it, and the paths of the copies, function before argument."""
    if isinstance(body, Var):
        if body.index == depth:
            return arg, [path]
        return (Var(body.index - 1, body.name) if body.index > depth else body), []
    if isinstance(body, Lam):
        inner, occ = naive_contract(body.body, arg, depth + 1, path + (BODY,))
        return Lam(body.name, inner), occ
    fun, occ_fun = naive_contract(body.fun, arg, depth, path + (FUN,))
    argument, occ_arg = naive_contract(body.arg, arg, depth, path + (ARG,))
    return App(fun, argument), occ_fun + occ_arg


def naive_step(term):
    """``(after, occurrences)`` of the weak head step from ``term``, by
    ``naive_contract``."""
    spine = []
    redex = term
    while isinstance(redex.fun, App):
        spine.append(redex.arg)
        redex = redex.fun
    after, occ = naive_contract(redex.fun.body, redex.arg, 0, (FUN,) * len(spine))
    for argument in reversed(spine):
        after = App(after, argument)
    return after, tuple(occ)


def assert_naive(replayed):
    """Each step of ``replayed``, ``(step, before, after)`` as ``replay``
    yields them, is the naive step from its ``before``."""
    for step, before, after in replayed:
        occurrences = tuple((FUN,) * step.depth + occ for occ in step.substituted_occurrences)
        naive, naive_occurrences = naive_step(before)
        assert written(after) == written(naive) and occurrences == naive_occurrences


@given(closed_terms())
@settings(max_examples=150, deadline=None)
def test_whnf_step_matches_a_recursive_substitution(term):
    step = next(whnf_steps(term), None)
    if step is not None:
        assert_naive(replay(term, [step]))


@given(closed_terms())
@settings(max_examples=150, deadline=None)
def test_every_reduction_step_matches_a_recursive_substitution(term):
    """The first 50 steps, or fewer while the term stays small: some of these
    terms diverge, and some grow at every step."""
    steps = islice(replay(term, whnf_steps(term)), 50)
    assert_naive(takewhile(lambda replayed: term_size(replayed[1]) <= 300, steps))


def test_every_whnf_trace_step_matches_on_the_families():
    """Later steps of a reduction skip subterms by the bounds its earlier steps
    recorded; on these families they revisit kept and rebuilt subterms."""
    terms = [harness.family_rkh(k, h) for k in (1, 3, 8) for h in (1, 3, 8)]
    terms += [parse("(\\f.\\x." + "f (" * n + "x" + ")" * n + ") I I", I_DEFS)
              for n in (1, 2, 5, 12)]
    terms += [harness.family_tn(n) for n in (1, 2, 6, 12)]
    for term in terms:
        steps = whnf_trace(term)
        replayed = list(replay(term, steps))
        assert_naive(replayed)
        assert_size_identity(replayed)
        if steps:
            assert steps[-1].depth == 0 and isinstance(steps[-1].head, Lam)


def assert_size_identity(replayed):
    """Each step changes the term's size by (k-1)·|arg| - k - 2 for k copies
    of its argument ``arg``: the count ``harness.probe_normalizes`` keeps."""
    for step, before, after in replayed:
        k = len(step.substituted_occurrences)
        assert (k - 1) * term_size(step.arg) - k - 2 == term_size(after) - term_size(before)


def test_size_identity_on_the_corpus_candidates(monkeypatch):
    """On every candidate ``gen_corpus(42, 200, 40)`` probes, over the steps the
    probe reads."""
    probed = []
    probe = harness.probe_normalizes

    def recording_probe(term):
        probed.append(term)
        return probe(term)

    monkeypatch.setattr(harness, "probe_normalizes", recording_probe)
    harness.gen_corpus(42, 200, 40)
    largest = 0
    for term in probed:
        steps = islice(replay(term, whnf_steps(term)), harness.PROBE_WHNF_FUEL)
        steps = list(takewhile(
            lambda replayed: term_size(replayed[1]) <= harness.PROBE_SIZE_CAP, steps))
        assert_size_identity(steps)
        largest = max([largest] + [term_size(after) for _, _, after in steps])
    assert largest > harness.PROBE_SIZE_CAP  # a step the size cap rejects is checked too


def test_term_size(running_example):
    assert term_size(running_example) == 11
