import json

from hypothesis import given, strategies as st

from lamrun import liam, ljam, tokens as tk
from lamrun.ham import LoggedClosure
from lamrun.syntax import ARG, BODY, FUN, Node, TermIndex, parse

from conftest import plain_text, reference_cells, reference_refs, same_item

_NODES: dict = {(): Node(None, None, None, 0)}


def node(path):
    """One node per path, in no term: these positions need only compare and print."""
    if path not in _NODES:
        _NODES[path] = Node(None, node(path[:-1]), path[-1], 0)
    return _NODES[path]


def lp(var, log=None):
    """A JAM logged position, whose text needs no binder: these nodes are in no term."""
    return ljam.LoggedPosition(node(var), log)


def footprint(log, tape):
    """(lp, markers, cells) of one JAM token, counted anew."""
    return ljam.state_footprint(ljam.JamState(None, tape, log, ljam.UP), tk.Reach())


def test_footprint_empty():
    assert footprint(tk.nil, tk.nil) == (0, 0, 0)


def test_footprint_peak_shape():
    # markers^k then two logged positions then markers^h: the peak state shape
    k, h = 2, 4
    p1 = lp((FUN,))
    p2 = lp((ARG,))
    tape = tk.from_list([tk.MARKER] * k + [p1, p2] + [tk.MARKER] * h)
    assert footprint(tk.nil, tape)[:2] == (2, h + k)


def test_footprint_counts_log_and_tape():
    assert footprint(tk.cons(lp((FUN,)), tk.nil), tk.cons(tk.MARKER, tk.nil))[:2] == (1, 1)


def test_footprint_flavor_invariant():
    # an IAM (local) and a JAM (global) logged position count alike
    inner = lp((ARG,))
    local = liam.LoggedPosition(node((FUN, BODY)), tk.cons(inner, tk.nil))
    glob = lp((FUN, BODY), log=tk.cons(inner, tk.nil))
    t1 = footprint(tk.nil, tk.cons(local, tk.nil))
    t2 = footprint(tk.nil, tk.cons(glob, tk.nil))
    assert t1[:2] == t2[:2] == (1, 0)


def test_nesting_affects_deep_cells_only():
    shallow = lp((FUN,))
    deep = lp((FUN,), log=tk.cons(lp((ARG,)), tk.nil))
    f1 = footprint(tk.nil, tk.cons(shallow, tk.nil))
    f2 = footprint(tk.nil, tk.cons(deep, tk.nil))
    assert f1[:2] == f2[:2]
    assert f2[2] > f1[2]


def test_shared_cells_counted_once():
    shared = tk.cons(lp((ARG,)), tk.nil)
    a = lp((FUN,), log=shared)
    b = lp((BODY,), log=shared)
    # one cell for the shared log, two for the tape spine
    assert footprint(tk.nil, tk.from_list([a, b]))[2] == 3


def test_reach_counts_cells_shared_two_ways_once():
    # why the JAM, KAM and HAM keep a Reach: their tokens share cells, which
    # a list written out as a tree counts once per way they are reached
    shared = tk.from_list([lp((ARG,)), tk.MARKER])
    a = tk.cons(tk.MARKER, shared)
    b = tk.cons(lp((FUN,), log=shared), None)  # held by an item, not as a tail
    assert tk.Reach().update(a, b) == reference_cells(a, b) == 4  # a, b and those two


def test_cons_shares_tail():
    base = tk.from_list([1, 2, 3])
    extended = tk.cons(0, base)
    assert extended.tail is base
    assert list(tk.iterate(base)) == [1, 2, 3]


@given(st.lists(st.integers(), max_size=10), st.integers(0, 10))
def test_take_drop_partition(items, n):
    xs = tk.from_list(items)
    if n > len(items):
        return
    assert list(tk.iterate(tk.take(xs, n))) == items[:n]
    assert list(tk.iterate(tk.drop(xs, n))) == items[n:]
    assert list(tk.iterate(tk.concat(tk.take(xs, n), tk.drop(xs, n)))) == items


@given(st.lists(st.integers(), max_size=8), st.lists(st.integers(), max_size=8))
def test_concat_lengths(a, b):
    assert list(tk.iterate(tk.concat(tk.from_list(a), tk.from_list(b)))) == a + b


def test_persistence_under_extension():
    captured = tk.from_list([lp((FUN,)), tk.MARKER])
    before = plain_text(lambda enc: enc.list(captured))
    _ = tk.cons(lp((ARG,)), captured)
    _ = tk.cons(tk.MARKER, captured)
    assert plain_text(lambda enc: enc.list(captured)) == before


def test_lp_equal_on_shared_structures():
    memo = {}
    inner = lp((ARG,))
    a = lp((FUN,), log=tk.cons(inner, tk.nil))
    b = lp((FUN,), log=tk.cons(lp((ARG,)), tk.nil))
    c = lp((FUN,), log=tk.cons(lp((BODY,)), tk.nil))
    shared = lp((FUN,), log=a.log)
    assert tk.related([(a, b)], same_item, memo)
    assert tk.related([(a, shared)], same_item, memo)
    assert not tk.related([(a, c)], same_item, memo)
    assert tk.related([(tk.from_list([tk.MARKER, a]), tk.from_list([tk.MARKER, b]))],
                      same_item, memo)
    assert not tk.related([(tk.from_list([a]), tk.from_list([tk.MARKER]))], same_item, memo)


def test_related_deeply_nested_logs():
    # each log holds one position whose log nests one level deeper: one
    # Python frame per level would exceed any default recursion limit
    def nested(depth):
        log = None
        for _ in range(depth):
            log = tk.cons(lp((FUN,), log=log), None)
        return log

    a, b = nested(30_000), nested(30_000)
    assert tk.related([(a, b)], same_item, {})
    assert not tk.related([(a, nested(29_999))], same_item, {})


def test_serialization_shape():
    top = TermIndex(parse("(\\x.x) (\\y.y)")).top
    y = liam.LoggedPosition(top.arg.body, None)
    a = liam.LoggedPosition(top.fun.body, tk.cons(y, tk.nil))
    doc = json.loads(plain_text(lambda enc: enc.text(a)))
    assert doc["var"] == "Fun/Body"
    assert doc["scope"] == "Fun"
    assert doc["flavor"] == "local"
    assert doc["log"][0]["var"] == "Arg/Body" and doc["log"][0]["scope"] == "Arg"
    assert json.loads(plain_text(lambda enc: enc.list(tk.from_list([tk.MARKER, a]))))[0] == "p"


def test_concat_long_list():
    # one Python frame per cell would exceed any default recursion limit
    xs = tk.concat(tk.from_list(range(50_000)), None)
    assert tk.length(xs) == 50_000 and tk.nth(xs, 49_999) == 49_999


ITEMS = st.sampled_from([tk.MARKER, tk.Marker(), lp((FUN,)), "p", 0])
OPS = st.tuples(st.sampled_from(["cons", "from_list", "concat", "take", "drop"]),
                st.integers(0, 20), st.integers(0, 20), st.lists(ITEMS, max_size=4))


@given(st.lists(ITEMS, max_size=6), st.lists(OPS, max_size=12))
def test_marker_counts_match_a_scan(start, ops):
    lists = [tk.nil, tk.from_list(start)]
    for op, i, j, items in ops:
        xs, ys = lists[i % len(lists)], lists[j % len(lists)]
        if op == "cons":
            lists.append(tk.cons(items[0] if items else tk.MARKER, xs))
        elif op == "from_list":
            lists.append(tk.from_list(items, xs))
        elif op == "concat":
            lists.append(tk.concat(xs, ys))
        elif op == "take":
            lists.append(tk.take(xs, j % (tk.length(xs) + 1)))
        else:
            lists.append(tk.drop(xs, j % (tk.length(xs) + 1)))
    for xs in lists:
        while xs is not None:  # every suffix is a list too
            assert type(xs.markers) is int
            assert xs.markers == sum(isinstance(x, tk.Marker) for x in tk.iterate(xs))
            xs = xs.tail
    assert tk.markers(tk.nil) == 0


def test_reach_follows_moving_roots():
    shared = tk.from_list([lp((ARG,)), tk.MARKER])
    a = tk.cons(lp((FUN,), log=shared), shared)  # shared as its tail and in its item's log
    b = tk.cons(tk.MARKER, shared)
    reach = tk.Reach()
    assert reach.update(a, b) == 4
    assert reach.refs[shared] == 3
    assert reach.update(a, None) == 3  # dropping b releases b's own cell only
    assert b not in reach.refs and reach.refs[shared] == 2
    assert reach.update(None, None) == 0 and reach.refs == {}
    assert reach.update(b, a) == 4  # cells released above come back
    assert reach.refs[shared] == 3 and reach.refs[shared.tail] == 1
    assert reach.update(a, a) == 3 and reach.refs[a] == 2  # one root twice
    assert reach.update(a) == 3 and reach.refs[a] == 1  # fewer roots than before
    assert reach.update(a, b, tk.from_list([tk.MARKER])) == 5


def held_item(kind, xs, ys):
    """A tape item that holds no list, one list or two lists."""
    if kind == 0:
        return tk.MARKER
    if kind == 1:
        return lp((FUN,), log=xs)
    return LoggedClosure(node((ARG,)), xs, ys)


# (move, root, other root, item kind, list held by the item)
MOVE = st.tuples(st.sampled_from(["push", "pop", "replace", "share", "hold", "roots"]),
                 st.integers(0, 4), st.integers(0, 4), st.integers(0, 2), st.integers(0, 99))


@given(st.lists(st.lists(MOVE, min_size=1, max_size=3), max_size=20))
def test_reach_matches_a_recount(updates):
    """Random root moves, a few per update: one cell pushed, popped or replaced;
    a root shared with another root, or held by an item pushed onto another root,
    before it is popped; roots added or dropped.  Every update keeps the counts
    equal to those recounted from scratch."""
    roots: list = [None, None]
    made: list = [None]  # every list some root has held: items may hold any of them
    reach = tk.Reach()
    for moves in updates:
        for move, i, j, kind, k in moves:
            i, j = i % len(roots), j % len(roots)
            x, held = roots[i], made[k % len(made)]
            if move == "push":
                roots[i] = tk.cons(held_item(kind, held, x), x)
            elif move == "pop" and x is not None:
                roots[i] = x.tail
            elif move == "replace" and x is not None:
                roots[i] = tk.cons(held_item(kind, held, x), x.tail)
            elif move == "share":  # the same cell at two roots
                roots[j] = x
            elif move == "hold" and x is not None and i != j:  # popped, held by an item
                roots[j] = tk.cons(held_item(max(kind, 1), x, held), roots[j])
                roots[i] = x.tail
            elif move == "roots":
                if kind and len(roots) > 1:
                    roots.pop()
                else:
                    roots.append(held)
            made.extend(roots)
        assert reach.update(*roots) == reference_cells(*roots)
        assert reach.refs == reference_refs(*roots)
