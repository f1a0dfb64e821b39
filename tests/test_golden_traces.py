"""Row-for-row machine traces on the two worked examples.

The expected rows were derived by hand for the application of a two-argument
abstraction to two identities, and for the self-application that duplicates
its argument.  Each row pins the transition label, the focused occurrence,
the direction, and the full token.
"""
from lamrun import ham, kam, liam, ljam, lpam, multitypes as mt, siam
from lamrun.reporting import trajectory
from lamrun.syntax import ARG, BODY, FUN

from conftest import token, traced

F, A, B = FUN, ARG, BODY


def lp_local(var, scope, log=()):
    """A local logged position as its trace JSON, written out field by field."""
    return {"var": "/".join(var), "scope": "/".join(scope), "flavor": "local", "log": list(log)}


def lp_global(var, log=()):
    return {"var": "/".join(var), "scope": "", "flavor": "global", "log": list(log)}


def iam_rows(events):
    return [
        (ev.label, ev.subterm_path, ev.dir, token(ev)["tape"], token(ev)["log"], token(ev)["bt"])
        for ev in events
    ]


def token_rows(events, keys):
    return [
        (ev.label, ev.subterm_path, ev.dir) + tuple(token(ev)[k] for k in keys)
        for ev in events
    ]


def expect_iam(rows):
    return [(label, "/".join(path), d, tape, log, bt) for label, path, d, tape, log, bt in rows]


def test_iam_running_example_trace(running_example):
    report, events = traced(liam.run, running_example, 100)
    x = lp_local((F, F, B, B, F), (F, F, B))
    z = lp_local((A, B), (A,))
    y = lp_local((F, F, B, B, A), (F, F), [z])
    p = "p"
    expected = expect_iam([
        ("init", (), "down", [], [], False),
        ("p1", (F,), "down", [p], [], False),
        ("p1", (F, F), "down", [p, p], [], False),
        ("p2", (F, F, B), "down", [p], [], False),
        ("p2", (F, F, B, B), "down", [], [], False),
        ("p1", (F, F, B, B, F), "down", [p], [], False),
        ("var", (F, F, B), "up", [x, p], [], False),
        ("p4", (F, F), "up", [p, x, p], [], False),
        ("p3", (F,), "up", [x, p], [], False),
        ("arg", (A,), "down", [p], [x], False),
        ("p2", (A, B), "down", [], [x], False),
        ("var", (A,), "up", [z], [x], False),
        ("bt1", (F,), "down", [x, z], [], True),
        ("p1", (F, F), "down", [p, x, z], [], False),
        ("p2", (F, F, B), "down", [x, z], [], True),
        ("bt2", (F, F, B, B, F), "up", [z], [], False),
        ("arg", (F, F, B, B, A), "down", [], [z], False),
        ("var", (F, F), "up", [y], [], False),
        ("arg", (F, A), "down", [], [y], False),
    ])
    assert iam_rows(events) == expected
    assert report.length == 18


def test_jam_running_example_trace(running_example):
    report, events = traced(ljam.run, running_example, 100)
    px = lp_global((F, F, B, B, F))
    pz = lp_global((A, B), [px])
    py = lp_global((F, F, B, B, A), [pz])
    p = "p"

    def row(label, path, d, tape, log):
        return (label, "/".join(path), d, tape, log)

    expected = [
        row("init", (), "down", [], []),
        row("p1", (F,), "down", [p], []),
        row("p1", (F, F), "down", [p, p], []),
        row("p2", (F, F, B), "down", [p], []),
        row("p2", (F, F, B, B), "down", [], []),
        row("p1", (F, F, B, B, F), "down", [p], []),
        row("var", (F, F, B), "up", [px, p], []),
        row("p4", (F, F), "up", [p, px, p], []),
        row("p3", (F,), "up", [px, p], []),
        row("arg", (A,), "down", [p], [px]),
        row("p2", (A, B), "down", [], [px]),
        row("var", (A,), "up", [pz], [px]),
        row("jmp", (F, F, B, B, F), "up", [pz], []),
        row("arg", (F, F, B, B, A), "down", [], [pz]),
        row("var", (F, F), "up", [py], []),
        row("arg", (F, A), "down", [], [py]),
    ]
    assert token_rows(events, ("tape", "log")) == expected
    assert report.length == 15


def test_kam_running_example_trace(running_example):
    report, events = traced(kam.run, running_example, 100)

    def clo(pos, env):
        return {"pos": "/".join(pos), "env": env}

    c2 = clo((A,), [])          # outer argument
    c1 = clo((F, A), [])        # inner argument
    env = [c2, c1]              # innermost binder first
    cy = clo((F, F, B, B, A), env)

    def row(label, path, env_, stack):
        return (label, "/".join(path), "down", env_, stack)

    expected = [
        row("init", (), [], []),
        row("app", (F,), [], [c2]),
        row("app", (F, F), [], [c1, c2]),
        row("abs", (F, F, B), [c1], [c2]),
        row("abs", (F, F, B, B), env, []),
        row("app", (F, F, B, B, F), env, [cy]),
        row("var", (A,), [], [cy]),
        row("abs", (A, B), [cy], []),
        row("var", (F, F, B, B, A), env, []),
        row("var", (F, A), [], []),
    ]
    assert token_rows(events, ("env", "stack")) == expected
    assert report.per_label == {"app": 3, "abs": 3, "var": 3}


def test_pam_running_example_trace(running_example):
    report, events = traced(lpam.run, running_example, 100)
    px = "/".join((F, F, B, B, F))
    pz = "/".join((A, B))
    py = "/".join((F, F, B, B, A))

    def h(*pairs):
        return [{"pos": p, "idx": i} for (p, i) in pairs]

    def row(label, path, d, hist, index, tape):
        return (label, "/".join(path), d, hist, index,
                ["p" if t == "p" else {"pos": "/".join(t)} for t in tape])

    expected = [
        row("init", (), "down", h(), 0, []),
        row("p1", (F,), "down", h(), 0, ["p"]),
        row("p1", (F, F), "down", h(), 0, ["p", "p"]),
        row("p2", (F, F, B), "down", h(), 0, ["p"]),
        row("p2", (F, F, B, B), "down", h(), 0, []),
        row("p1", (F, F, B, B, F), "down", h(), 0, ["p"]),
        row("var", (F, F, B), "up", h(), 0, [(F, F, B, B, F), "p"]),
        row("p4", (F, F), "up", h(), 0, ["p", (F, F, B, B, F), "p"]),
        row("p3", (F,), "up", h(), 0, [(F, F, B, B, F), "p"]),
        row("arg", (A,), "down", h((px, 0)), 1, ["p"]),
        row("p2", (A, B), "down", h((px, 0)), 1, []),
        row("var", (A,), "up", h((px, 0)), 1, [(A, B)]),
        row("jmp", (F, F, B, B, F), "up", h((px, 0)), 0, [(A, B)]),
        row("arg", (F, F, B, B, A), "down", h((px, 0), (pz, 0)), 2, []),
        row("var", (F, F), "up", h((px, 0), (pz, 0)), 0, [(F, F, B, B, A)]),
        row("arg", (F, A), "down", h((px, 0), (pz, 0), (py, 0)), 3, []),
    ]
    assert token_rows(events, ("history", "index", "tape")) == expected
    assert report.length == 15


# ---------------------------------------------------------------------------
# Duplication example: all machines


def test_iam_duplication_trace(duplication_example):
    report, events = traced(liam.run, duplication_example, 100)
    x1 = lp_local((F, B, F), (F,))
    y = lp_local((A, B), (A,))
    x2 = lp_local((F, B, A), (F,), [y])
    p = "p"
    expected = expect_iam([
        ("init", (), "down", [], [], False),
        ("p1", (F,), "down", [p], [], False),
        ("p2", (F, B), "down", [], [], False),
        ("p1", (F, B, F), "down", [p], [], False),
        ("var", (F,), "up", [x1, p], [], False),
        ("arg", (A,), "down", [p], [x1], False),
        ("p2", (A, B), "down", [], [x1], False),
        ("var", (A,), "up", [y], [x1], False),
        ("bt1", (F,), "down", [x1, y], [], True),
        ("bt2", (F, B, F), "up", [y], [], False),
        ("arg", (F, B, A), "down", [], [y], False),
        ("var", (F,), "up", [x2], [], False),
        ("arg", (A,), "down", [], [x2], False),
    ])
    assert iam_rows(events) == expected
    assert report.length == 12


def test_jam_duplication_trace(duplication_example):
    report, events = traced(ljam.run, duplication_example, 100)
    px = lp_global((F, B, F))
    py = lp_global((A, B), [px])
    px2 = lp_global((F, B, A), [py])
    labels = [ev.label for ev in events]
    assert labels == ["init", "p1", "p2", "p1", "var", "arg", "p2", "var", "jmp",
                      "arg", "var", "arg"]
    assert report.length == 11
    final = events[-1]
    assert final.subterm_path == "Arg"
    assert token(final)["log"] == [px2]
    jmp = events[8]
    assert jmp.subterm_path == "Fun/Body/Fun"
    assert token(jmp)["tape"] == [py]
    assert token(jmp)["log"] == []


def test_kam_duplication_trace(duplication_example):
    _, events = traced(kam.run, duplication_example, 100)

    def clo(pos, env):
        return {"pos": "/".join(pos), "env": env}

    ci = clo((A,), [])
    env = [ci]
    cx2 = clo((F, B, A), env)

    def row(label, path, env_, stack):
        return (label, "/".join(path), "down", env_, stack)

    expected = [
        row("init", (), [], []),
        row("app", (F,), [], [ci]),
        row("abs", (F, B), env, []),
        row("app", (F, B, F), env, [cx2]),
        row("var", (A,), [], [cx2]),
        row("abs", (A, B), [cx2], []),
        row("var", (F, B, A), env, []),
        row("var", (A,), [], []),
    ]
    assert token_rows(events, ("env", "stack")) == expected


def test_pam_duplication_trace(duplication_example):
    _, events = traced(lpam.run, duplication_example, 100)
    px = "/".join((F, B, F))
    py = "/".join((A, B))
    px2 = "/".join((F, B, A))

    def h(*pairs):
        return [{"pos": p, "idx": i} for (p, i) in pairs]

    def row(label, path, d, hist, index, tape):
        return (label, "/".join(path), d, hist, index,
                ["p" if t == "p" else {"pos": "/".join(t)} for t in tape])

    expected = [
        row("init", (), "down", h(), 0, []),
        row("p1", (F,), "down", h(), 0, ["p"]),
        row("p2", (F, B), "down", h(), 0, []),
        row("p1", (F, B, F), "down", h(), 0, ["p"]),
        row("var", (F,), "up", h(), 0, [(F, B, F), "p"]),
        row("arg", (A,), "down", h((px, 0)), 1, ["p"]),
        row("p2", (A, B), "down", h((px, 0)), 1, []),
        row("var", (A,), "up", h((px, 0)), 1, [(A, B)]),
        row("jmp", (F, B, F), "up", h((px, 0)), 0, [(A, B)]),
        row("arg", (F, B, A), "down", h((px, 0), (py, 0)), 2, []),
        row("var", (F,), "up", h((px, 0), (py, 0)), 0, [(F, B, A)]),
        row("arg", (A,), "down", h((px, 0), (py, 0), (px2, 0)), 3, []),
    ]
    assert token_rows(events, ("history", "index", "tape")) == expected


def test_siam_duplication_trace(duplication_example):
    deriv = mt.infer_star_derivation(duplication_example, 100)
    dindex = siam.DerivationIndex(deriv, duplication_example)
    states = [s for _, s, _ in trajectory(siam.MACHINE, dindex, 100)]
    rows = [("/".join(s.node.term_pos), siam.tpath_str(s.node.rh_type, s.star), s.dir)
            for s in states]
    expected = [
        ("", "·", "up"),
        ("Fun", "T", "up"),
        ("Fun/Body", "·", "up"),
        ("Fun/Body/Fun", "T", "up"),
        ("Fun", "E1/T", "down"),
        ("Arg", "T", "up"),
        ("Arg/Body", "·", "up"),
        ("Arg", "E1", "down"),
        ("Fun", "E1/E1", "up"),
        ("Fun/Body/Fun", "E1", "down"),
        ("Fun/Body/Arg", "·", "up"),
        ("Fun", "E2", "down"),
        ("Arg", "·", "up"),
    ]
    assert rows == expected
    labels = [lbl for lbl, _, _ in trajectory(siam.MACHINE, dindex, 100)][1:]
    assert labels == ["p1", "p2", "p1", "var", "arg", "p2", "var", "bt1", "bt2",
                      "arg", "var", "arg"]


def test_ham_traces_project_on_running_example(running_example):
    j, j_events = traced(ham.run, running_example, ham.J_MODE, 100)
    k, k_events = traced(ham.run, running_example, ham.K_MODE, 100)
    assert [e.label for e in j_events][1:] == [
        "p1_app", "p1_app", "p2_abs", "p2_abs", "p1_app", "var_j", "p4", "p3",
        "arg", "p2_abs", "var_j", "jmp", "arg", "var_j", "arg"]
    assert [e.label for e in k_events][1:] == [
        "p1_app", "p1_app", "p2_abs", "p2_abs", "p1_app", "var_k", "p2_abs",
        "var_k", "var_k"]
    assert j.length == k.length + j.up_length
