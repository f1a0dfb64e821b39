#!/usr/bin/env python3
"""Measure the interaction/Krivine time gap on the nested-identity family.

Prints one row per family member: both run lengths, their ratio, and the two
weight predictions of its ★ derivation, which must equal the measured lengths.
"""
from __future__ import annotations

import argparse

from lamrun import harness, kam, liam, multitypes as mt


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--fuel", type=int, default=10**7)
    args = ap.parse_args()

    print("n,iam,kam,ratio,w_iam,w_kam")
    for n in range(1, args.n_max + 1):
        t = harness.family_tn(n)
        iam_len = liam.run(t, args.fuel).length
        kam_len = kam.run(t, args.fuel).length
        ratio = iam_len / kam_len if kam_len else 0.0
        deriv = mt.infer_star_derivation(t, args.fuel)
        w_iam, w_kam = mt.weight_iam(deriv), mt.weight_kam(deriv)
        assert w_iam == iam_len and w_kam == kam_len, (n, w_iam, iam_len, w_kam, kam_len)
        print(f"{n},{iam_len},{kam_len},{ratio:.2f},{w_iam},{w_kam}")


if __name__ == "__main__":
    main()
