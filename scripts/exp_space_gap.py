#!/usr/bin/env python3
"""Peak token sizes of the interaction and jumping machines on the separating family.

For each (k, h) in a grid, reports the peak marker counts of both machines.
The interaction machine peaks at h+k markers during backtracking, the jumping
machine at max(h, k+1); both peaks carry two top-level logged positions.
"""
from __future__ import annotations

import argparse

from lamrun import harness, liam, ljam


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=4)
    ap.add_argument("--h-max", type=int, default=4)
    ap.add_argument("--fuel", type=int, default=10**6)
    args = ap.parse_args()

    print("k,h,iam_peak_markers,jam_peak_markers,diff,predicted_diff")
    for k in range(1, args.k_max + 1):
        for h in range(1, args.h_max + 1):
            t = harness.family_rkh(k, h)
            pi = liam.run(t, args.fuel).peak.marker_count
            pj = ljam.run(t, args.fuel).peak.marker_count
            predicted = (h + k) - max(h, k + 1)
            assert pi == h + k and pj == max(h, k + 1)
            print(f"{k},{h},{pi},{pj},{pi - pj},{predicted}")


if __name__ == "__main__":
    main()
