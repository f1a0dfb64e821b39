"""Byte-for-byte JSONL and table traces of every machine on three small
terms, and the size and digest of each machine's trace on ``two two I I``.

Each JSONL fixture is the full output of ``lamrun run --trace
jsonl-unfolded``: one event per line, with every token item written out in
full, then the report line.  They pin the token serialisation of every
machine and the footprint figures (``deepCells``, ``peakFootprint``,
``ramCostBound``) that no hand-derived golden trace covers.  Each table
fixture is the full output of ``lamrun run --trace table``, which pins the
subterm and context columns.  ``--trace jsonl`` writes the shared form, in
which each item that holds lists is defined once: its ``two two I I`` traces
are pinned by their own digests.

To regenerate them after a deliberate format change, run
``PYTHONPATH=src python tests/test_trace_fixtures.py``.
"""
import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from lamrun.cli import main

from conftest import traced_peak

FIXTURES = Path(__file__).parent / "fixtures" / "traces"
TABLES = Path(__file__).parent / "fixtures" / "tables"

TERMS = {
    "running": "(\\y.\\x.x y) (\\z.z) (\\z.z)",
    "duplication": "(\\x.x x) (\\y.y)",
    "t4": "(\\x.x) (\\x.x) (\\x.x) (\\x.x)",
}
MACHINES = ("iam", "jam", "pam", "kam", "ham-j", "ham-k", "siam")
CASES = [(t, m) for t in TERMS for m in MACHINES]
# two two I I with two = λf.λx.f (f x): tokens share heavily and HAM-J's unfolded
# trace is 20 MB, so each machine's trace is pinned by its byte length and sha256
TWO_TWO = "(\\f.\\x.f (f x)) (\\f.\\x.f (f x)) (\\z.z) (\\z.z)"
DIGESTS = {
    "iam": (90691, "02e86a1dcfec4b5dc23f5d699e73233b6f769125e5b79e37e67e4eadbb3cdd7a"),
    "jam": (641296, "45613c56a1e1a31c102e388c44ce32959e9936d3114722673bf341b7b563e8fa"),
    "pam": (73697, "d8540b9db3b2118470ddc071f63ffef789e7feb285ae5540c2149daa734f433a"),
    "kam": (23251, "9bda32fdd029cf7166a81f8fc38c83ba633a3716728bbd1b223bc0163927dc03"),
    "ham-j": (19986047, "6db706b18189d540b72b3178cb241a8e0db6745a1ac5be1a7631bbaebd8ce3e2"),
    "ham-k": (5026625, "a831b4185430cb61f09e8d2fe3d0b2db98e3443b495e3b6001fbf3f7d595b936"),
    "siam": (31434, "7ff54cddb04ac6aa53409ab91aa1babeb3cb894ea3d95d2019451cbaf355b1f1"),
}
# the same traces in the shared form: the PAM's and the SIAM's tokens hold no
# item that holds lists, so their two forms are the same bytes
SHARED_DIGESTS = {
    "iam": (36328, "8f0e561c661dc012e062d4a3834c9214795d68bf2bd4973eb6466c95af356f46"),
    "jam": (24920, "c037dfefcf54d71766901ec32a142249b89914e0098c6ceb7c36d1a8b8ae341b"),
    "pam": (73697, "d8540b9db3b2118470ddc071f63ffef789e7feb285ae5540c2149daa734f433a"),
    "kam": (10975, "4da74b2a5883a48ae8cb52c4888d087dada6911fd0cf643275c3a13314ea5c74"),
    "ham-j": (28972, "bdf100d1428623346a6231d6c66583edf87ee5f486aaa1190dfe6aefd2462f4b"),
    "ham-k": (14760, "c8795890f2292b3d294dfd6bb30347c1d7c9bfd29cd85a0dcada39745a76d364"),
    "siam": (31434, "7ff54cddb04ac6aa53409ab91aa1babeb3cb894ea3d95d2019451cbaf355b1f1"),
}


def trace_text(term: str, machine: str, trace: str = "jsonl-unfolded") -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["run", term, "--machine", machine, "--trace", trace])
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("term,machine", CASES)
def test_jsonl_trace_matches_fixture(term, machine):
    expected = (FIXTURES / f"{term}-{machine}.jsonl").read_text(encoding="utf-8")
    assert trace_text(TERMS[term], machine) == expected


@pytest.mark.parametrize("term,machine", CASES)
def test_table_trace_matches_fixture(term, machine):
    expected = (TABLES / f"{term}-{machine}.txt").read_text(encoding="utf-8")
    assert trace_text(TERMS[term], machine, "table") == expected


def test_no_table_line_ends_in_a_blank():
    # the last column, the token, is not padded to the run's widest token
    texts = [trace_text(TWO_TWO, "jam", "table")]
    texts += [path.read_text(encoding="utf-8") for path in sorted(TABLES.glob("*.txt"))]
    assert len(texts) == len(CASES) + 1
    for text in texts:
        assert not [line for line in text.splitlines() if line.endswith(" ")]


@pytest.mark.parametrize("machine", MACHINES)
def test_shared_token_trace_matches_digest(machine):
    data = trace_text(TWO_TWO, machine).encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == DIGESTS[machine]


@pytest.mark.parametrize("machine", MACHINES)
def test_shared_form_trace_matches_digest(machine):
    data = trace_text(TWO_TWO, machine, "jsonl").encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == SHARED_DIGESTS[machine]


def test_a_traced_run_does_not_hold_its_trace(tmp_path):
    """HAM-J's unfolded trace of two two I I is 20 MB.  Each event is written
    as the run makes it, so what the run allocates peaks below half of that."""
    out = tmp_path / "ham-j.jsonl"
    code, peak = traced_peak(main, ["run", TWO_TWO, "--machine", "ham-j",
                                    "--trace", "jsonl-unfolded", "--out", str(out)])
    assert code == 0
    size = out.stat().st_size
    assert size == DIGESTS["ham-j"][0]
    assert peak < size / 2, f"peak {peak} bytes for a {size}-byte trace"


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    TABLES.mkdir(parents=True, exist_ok=True)
    for term, machine in CASES:
        (FIXTURES / f"{term}-{machine}.jsonl").write_text(
            trace_text(TERMS[term], machine), encoding="utf-8")
        (TABLES / f"{term}-{machine}.txt").write_text(
            trace_text(TERMS[term], machine, "table"), encoding="utf-8")
