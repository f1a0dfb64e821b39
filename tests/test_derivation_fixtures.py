"""Byte-for-byte ★ derivations of the worked examples, the paper's families
and the seed-42 corpus.

Each fixture is the full output of
``lamrun types --weights --print-derivation --json``: the type, ``w_kam``,
``w_iam`` and ``stars``, the inference-tree rendering, and the
``derivation_to_json`` document.  They pin every judgement's rule, position
and type, the weights and the ★ count, so a change to how derivations are
built cannot move any of them unseen.  The corpus terms share one fixture,
one block per term.

To regenerate them after a deliberate format change, run
``PYTHONPATH=src python tests/test_derivation_fixtures.py``.
"""
import contextlib
import io
from pathlib import Path

import pytest

from lamrun import harness
from lamrun.cli import main
from lamrun.syntax import pretty

from conftest import canonical_pretty, identity_chain

FIXTURES = Path(__file__).parent / "fixtures" / "derivations"
FLAGS = ("--weights", "--print-derivation", "--json")
I = "(\\z.z)"


TERMS = {
    "running": f"(\\y.\\x.x y) {I} {I}",
    "duplication": "(\\x.x x) (\\y.y)",
    **{f"t{n}": " ".join(["(\\x.x)"] * n) for n in range(1, 9)},
    "c30-i-i": "(\\f.\\x." + "f (" * 30 + "x" + ")" * 30 + f") {I} {I}",
    "r3-3": pretty(harness.family_rkh(3, 3)),
    "r30-30": pretty(harness.family_rkh(30, 30)),
    "chain150": identity_chain(150),
}


def types_text(text: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["types", text, *FLAGS])
    assert code == 0
    return buf.getvalue()


def corpus_text() -> str:
    blocks = []
    for i, term in enumerate(harness.gen_corpus(42, 200, 40)):
        text = canonical_pretty(term)
        blocks.append(f"== corpus {i}: {text}\n{types_text(text)}")
    return "".join(blocks)


@pytest.mark.parametrize("name", sorted(TERMS))
def test_derivation_matches_fixture(name):
    expected = (FIXTURES / f"{name}.txt").read_text(encoding="utf-8")
    assert types_text(TERMS[name]) == expected


def test_corpus_derivations_match_fixture():
    expected = (FIXTURES / "corpus-42-200-40.txt").read_text(encoding="utf-8")
    assert corpus_text() == expected


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, text in TERMS.items():
        (FIXTURES / f"{name}.txt").write_text(types_text(text), encoding="utf-8")
    (FIXTURES / "corpus-42-200-40.txt").write_text(corpus_text(), encoding="utf-8")
