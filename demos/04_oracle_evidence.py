#!/usr/bin/env python3
"""Brute-force evidence for the closed-form verdicts.

Galerkin sections in the orthonormalized monomial basis make the radial
family diagonal with entries g^{k+1}, g = 1/(1 - 2 lam).  Watching the
section norms and singular values over growing size N shows boundedness
(plateau) versus unboundedness (geometric growth), and compactness as
geometric singular-value decay.  Coherent-state norms give the same
verdict through their growth exponent in |w|^2.
"""

import numpy as np

from bargtop.forms import ComplexQuadraticForm, Weight
from bargtop.model import ModelInstance, model_problem
from bargtop.oracle import norm_trend, is_plateau, singular_decay
from bargtop.toeplitz import ToeplitzProblem, classify_operator
from bargtop.verify import COHERENT_RADII, coherent_scale, coherent_slope

CASES = [
    ("identity (q = 0)", None),
    ("contracting lam = -1/2", -0.5),
    ("oscillating lam = i", 1j),
    ("expanding lam = 0.2", 0.2),
]


def problem_for(lam):
    if lam is None:
        return ToeplitzProblem(Weight.model(1), ComplexQuadraticForm.zero(1))
    return model_problem(ModelInstance(1, lam, np.zeros((1, 1))))


if __name__ == "__main__":
    sizes = (10, 20, 40)
    for name, lam in CASES:
        problem = problem_for(lam)
        verdict = classify_operator(problem).verdict.value
        norms = norm_trend(problem, sizes)
        decay = singular_decay(problem, 40)
        print(f"{name}: verdict {verdict}")
        shown = {s: round(float(v), 6) for s, v in zip(sizes, norms)}
        print(f"  section norms {shown} plateau={is_plateau(norms)}")
        print(f"  singular decay ratio {decay.ratio:.4f}"
              + (f" (|gamma| = {abs(1/(1-2*lam)):.4f})" if lam is not None else ""))

    print("\ncoherent-state growth (log-norm slope in |w|^2):")
    for name, lam in CASES[1:]:
        problem = problem_for(lam)
        _, slope = coherent_slope(problem, COHERENT_RADII, coherent_scale(problem))
        g2 = abs(1 / (1 - 2 * lam)) ** 2
        print(f"  {name}: measured {slope:+.5f}, predicted {(g2 - 1) / 4:+.5f}")
