"""Command line interface: parse, run, compare, types, check, bench."""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import equivalence as eq, harness, multitypes as mt
from .reporting import StuckError, unfold
from .syntax import (
    DEFAULT_FUEL,
    Diverged,
    LamError,
    is_closed,
    load_definitions,
    parse,
    pretty,
    term_size,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_FUEL = 2
EXIT_INPUT = 3


def _read_term_arg(text: str, defs_path):
    """The term of an argument: its text, ``@path`` for a file's, ``-`` for stdin's."""
    if text == "-":
        text = sys.stdin.read()
    elif text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    definitions = {}
    if defs_path:
        with open(defs_path, "r", encoding="utf-8") as fh:
            definitions = load_definitions(fh.read())
    return parse(text, definitions)


def _fuel(text: str) -> int:
    """A step budget, from ``--fuel`` or ``LAMRUN_FUEL``: a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"fuel must be a non-negative integer, not {text!r}")
    return int(text)


def _corpus(text: str) -> tuple:
    """``--corpus seed,count,maxSize``: three integers, count and maxSize at least 1."""
    if not re.fullmatch(r"-?\d+(,\d*[1-9]\d*){2}", text):
        raise argparse.ArgumentTypeError(
            f"corpus must be seed,count,maxSize with count and maxSize at least 1, not {text!r}")
    return tuple(map(int, text.split(",")))


def _range(text: str) -> range:
    """``--range a..b``: two integers with 1 <= a <= b (both families start at 1)."""
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m is None or not 1 <= int(m[1]) <= int(m[2]):
        raise argparse.ArgumentTypeError(
            f"range must be a..b with integers 1 <= a <= b, not {text!r}")
    return range(int(m[1]), int(m[2]) + 1)


def _machines(text: str) -> list:
    """A comma-separated list of machine names."""
    names = text.split(",")
    for name in names:
        if name not in harness.MACHINES:
            raise argparse.ArgumentTypeError(
                f"unknown machine {name!r} (choose from {', '.join(harness.MACHINES)})")
    return names


def _default_fuel(args) -> int:
    if args.fuel is not None:
        return args.fuel
    env = os.environ.get("LAMRUN_FUEL")
    return _fuel(env) if env else DEFAULT_FUEL


def _table(events, root) -> str:
    rows = [["step", "label", "dir", "subterm", "context", "token"]]
    rows += ([str(ev.step), ev.label, ev.dir, ev.subterm_pretty,
              pretty(root, ev.node.path), ev.token_json]
             for ev in events)
    # every column but the last is padded: the token column would pad each row
    # to the run's widest token
    widths = [max(map(len, column)) for column in list(zip(*rows))[:-1]]
    return "\n".join("  ".join([*map(str.ljust, r, widths), r[-1]]) for r in rows)


def cmd_parse(args) -> int:
    term = _read_term_arg(args.term, args.defs)
    print(pretty(term))
    print(f"size: {term_size(term)}")
    print(f"closed: {is_closed(term)}")
    return EXIT_OK


def cmd_run(args) -> int:
    term = _read_term_arg(args.term, args.defs)
    fuel = _default_fuel(args)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        return _run(args, term, fuel, out)
    except StuckError:
        raise  # the trace keeps the states the run reached
    except Exception:
        if args.out and os.path.isfile(args.out):  # no partial file: the run failed
            out.close()
            os.remove(args.out)
        raise
    finally:
        if args.out:
            out.close()


def _run(args, term, fuel: int, out) -> int:
    rows: list = []  # the table's events: its column widths need every row
    write = lambda ev: print(ev.to_line(), file=out)  # noqa: E731
    sinks = {"jsonl": write, "jsonl-unfolded": unfold(write), "table": unfold(rows.append)}
    try:
        report = harness.run_machine(args.machine, term, fuel, sink=sinks.get(args.trace))
    except Diverged:  # the SIAM's term has no ★ derivation within fuel
        report = None
    if report is None or report.outcome == "fuel":
        print(f"fuel exhausted after {fuel} steps", file=sys.stderr)
        return EXIT_FUEL
    if args.trace == "table":
        print(_table(rows, term), file=out)
    print(json.dumps(report.to_json(), ensure_ascii=False), file=out)
    return EXIT_OK


def _var_count(name: str, entry: dict) -> int | None:
    """The variable transitions of one machine's entry in a comparison row;
    None when the entry has no transition counts (SIAM without a derivation)."""
    per = entry.get("perLabel")
    labels = harness.MACHINES[name].var_labels
    return None if per is None else sum(per.get(lbl, 0) for lbl in labels)


def cmd_compare(args) -> int:
    term = _read_term_arg(args.term, args.defs)
    fuel = _default_fuel(args)
    row = harness.compare(term, fuel, args.machines, with_types=args.types)
    if args.format == "json":
        print(json.dumps(row, ensure_ascii=False, indent=2))
        return EXIT_OK
    entries = row["machines"]
    headers = ["machine", "outcome", "length", "vars", "ramBound", "peakLp", "peakMarkers"]
    sep = "," if args.format == "csv" else "  "
    lines = [sep.join(headers)]
    for name, entry in entries.items():
        peak = entry.get("peakFootprint", {})
        lines.append(sep.join("" if x is None else str(x) for x in [
            name, entry.get("outcome"), entry.get("length"), _var_count(name, entry),
            entry.get("ramCostBound"), peak.get("lp"), peak.get("markers")]))
    if "weights" in row and row["weights"]:
        lines.append(f"weights{sep}w_kam={row['weights']['w_kam']}"
                     f"{sep}w_iam={row['weights']['w_iam']}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_types(args) -> int:
    term = _read_term_arg(args.term, args.defs)
    fuel = _default_fuel(args)
    try:
        deriv = mt.infer_star_derivation(term, fuel)
    except Diverged:
        print("no weak head normal form within fuel; term is untypable", file=sys.stderr)
        return EXIT_FUEL
    print(f"type: {mt.type_str(deriv.rh_type)}")
    if args.weights:
        print(f"w_kam: {mt.weight_kam(deriv)}")
        print(f"w_iam: {mt.weight_iam(deriv)}")
        print(f"stars: {mt.star_count(deriv)}")
    if args.print_derivation:
        print(mt.derivation_pretty(deriv))
    if args.json:
        print(json.dumps(mt.derivation_to_json(deriv), ensure_ascii=False))
    return EXIT_OK


def cmd_check(args) -> int:
    fuel = _default_fuel(args)
    if args.corpus:  # argparse requires either a term or a corpus
        terms = harness.gen_corpus(*args.corpus)
        if not terms:
            print("the corpus generator kept no term: raise count or maxSize", file=sys.stderr)
            return EXIT_INPUT
    else:
        terms = [_read_term_arg(args.term, args.defs)]
    checker = eq.CHECKERS[args.what]
    reports = ([checker(terms, fuel)] if args.what == "quadratic"  # one verdict on the corpus
               else (checker(term, fuel) for term in terms))
    failures = inconclusive = 0
    for report in reports:
        print(json.dumps(report.to_json(), ensure_ascii=False))
        failures += not report.passed
        inconclusive += report.inconclusive
    if failures:
        return EXIT_CHECK_FAILED
    return EXIT_FUEL if inconclusive else EXIT_OK


def cmd_bench(args) -> int:
    fuel = _default_fuel(args)
    rows = []
    for n in args.range:
        if args.family == "tn":
            term = harness.family_tn(n)
            label = f"t_{n}"
        else:
            term = harness.family_rkh(n, n)
            label = f"r_{n}^{n}"
        row = harness.compare(term, fuel)
        rows.append((label, row))
    if args.format == "csv":
        print("family,machine,length,vars,peakLp,peakMarkers")
        for label, row in rows:
            for name, entry in row["machines"].items():
                peak = entry.get("peakFootprint", {})
                print(f"{label},{name},{entry.get('length')},{_var_count(name, entry)},"
                      f"{peak.get('lp')},{peak.get('markers')}")
    else:
        for label, row in rows:
            lengths = {name: entry.get("length") for name, entry in row["machines"].items()}
            print(label, json.dumps(lengths))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error: one line, and the exit code of bad input."""
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lamrun")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("parse", help="echo parsed term, size, closedness")
    sp.add_argument("term")
    sp.add_argument("--defs")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("run", help="run one machine, optionally tracing")
    sp.add_argument("term")
    sp.add_argument("--machine", required=True, choices=list(harness.MACHINES))
    sp.add_argument("--fuel", type=_fuel)
    sp.add_argument("--trace", choices=["table", "jsonl", "jsonl-unfolded", "none"],
                    default="none")
    sp.add_argument("--out")
    sp.add_argument("--defs")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("compare", help="run several machines on one term")
    sp.add_argument("term")
    sp.add_argument("--machines", type=_machines)
    sp.add_argument("--fuel", type=_fuel)
    sp.add_argument("--format", choices=["table", "csv", "json"], default="table")
    sp.add_argument("--types", action="store_true")
    sp.add_argument("--defs")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("types", help="build the star derivation and weights")
    sp.add_argument("term")
    sp.add_argument("--print-derivation", action="store_true")
    sp.add_argument("--weights", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--fuel", type=_fuel)
    sp.add_argument("--defs")
    sp.set_defaults(fn=cmd_types)

    sp = sub.add_parser("check", help="machine relationship and invariant checkers")
    sp.add_argument("what", choices=list(eq.CHECKERS))
    one = sp.add_mutually_exclusive_group(required=True)
    one.add_argument("term", nargs="?")
    one.add_argument("--corpus", type=_corpus, help="seed,count,maxSize")
    sp.add_argument("--fuel", type=_fuel)
    sp.add_argument("--defs")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("bench", help="run a benchmark family")
    sp.add_argument("--family", required=True, choices=["tn", "rkh"])
    sp.add_argument("--range", required=True, type=_range, help="a..b")
    sp.add_argument("--format", choices=["csv", "table"], default="table")
    sp.add_argument("--fuel", type=_fuel)
    sp.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error already reported
        return exc.code
    try:
        return args.fn(args)
    except Diverged as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FUEL
    except (LamError, OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except (RecursionError, MemoryError) as exc:
        print(f"input too large for this command: {exc!r}", file=sys.stderr)
        return EXIT_INPUT
    except StuckError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
