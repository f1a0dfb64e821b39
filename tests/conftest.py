import pytest

from lamrun import harness
from lamrun.syntax import parse

DEFS = {"I": "\\z.z"}


def at(index, path):
    """The node of ``index`` at a root-relative path of FUN/ARG/BODY steps."""
    node = index.top
    for step in path:
        node = getattr(node, step.lower())
    return node


@pytest.fixture(scope="session")
def running_example():
    """(λy.λx.x y) I I with I = λz.z."""
    return parse("(\\y.\\x.x y) I I", DEFS)


@pytest.fixture(scope="session")
def duplication_example():
    return parse("(\\x.x x) (\\y.y)")


@pytest.fixture(scope="session")
def omega():
    return parse("(\\x.x x) (\\x.x x)")


@pytest.fixture(scope="session")
def corpus():
    return harness.gen_corpus(42, 200, 40)
