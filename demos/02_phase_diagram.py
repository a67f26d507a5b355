#!/usr/bin/env python3
"""Phase diagram of the radial family.

For q(x) = lam |x|^2 + a xbar^2 on the weight |x|^2/4 the operator is
bounded iff 4|a| <= (1 - |g|^2)/|g|^2 with g = 1/(1 - 2 lam), compact iff
strict.  We sweep (Re lam, |a|), classify every point with the full
pipeline, print an ASCII map, and write phase_diagram.csv to the current
directory.

The same sweep is available from the command line:

    bargtop scan --lambda-re=-2:0.24:101 --lambda-im 0 \
                 --norm-a 0:0.2:5 -o phase.csv
"""

import csv
import pathlib

import numpy as np

from bargtop.model import ModelInstance, model_problem
from bargtop.toeplitz import VerdictClass, classify_operator

GLYPH = {
    VerdictClass.COMPACT: "#",
    VerdictClass.BOUNDED_NOT_COMPACT: "o",
    VerdictClass.UNBOUNDED: ".",
    VerdictClass.INADMISSIBLE: " ",
}


def sweep(re_grid, na_grid, im_lam=0.0):
    rows = []
    for na in na_grid[::-1]:
        line = []
        for re in re_grid:
            inst = ModelInstance(1, complex(re, im_lam), np.array([[na]]))
            if not inst.is_admissible:
                verdict = VerdictClass.INADMISSIBLE
                margin = float("nan")
            else:
                v = classify_operator(model_problem(inst))
                verdict, margin = v.verdict, v.margin
            line.append(verdict)
            rows.append((re, im_lam, na, verdict.value, margin))
        print(f"|a|={na:4.2f} " + "".join(GLYPH[v] for v in line))
    return rows


if __name__ == "__main__":
    re_grid = np.linspace(-2.0, 0.24, 57)
    na_grid = np.linspace(0.0, 0.2, 5)
    print("verdicts over Re(lam) in [-2, 0.24]  (#: compact, o: boundary, .: unbounded)")
    rows = sweep(re_grid, na_grid)
    print(f"{'':8s}" + f"Re(lam) from {re_grid[0]} to {re_grid[-1]}")

    out = pathlib.Path("phase_diagram.csv")
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_lambda", "im_lambda", "normA", "verdict", "margin"])
        writer.writerows(rows)
    print(f"\nwrote {len(rows)} rows to {out}")

    # the exact boundary: 4|a| = (1 - |g|^2)/|g|^2, shown at a few |a| levels
    print("\nexact boundary Re(lam) for each |a| (negative root of the threshold):")
    for na in na_grid[1:]:
        # threshold in terms of t = 1 - 2 re: (t^2 - 1)/1 = 4|a| t^2 / ... solved numerically
        grid = np.linspace(-2.0, 0.124, 20001)
        g2 = 1.0 / np.abs(1.0 - 2.0 * grid) ** 2
        margin = (1.0 - g2) / g2 - 4.0 * na
        left = grid[np.argmin(np.abs(margin))]
        print(f"  |a|={na:4.2f}: Re(lam) ~ {left:+.4f}")
