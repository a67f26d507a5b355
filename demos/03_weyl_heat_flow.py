#!/usr/bin/env python3
"""The Weyl symbol as a heat flow, closed form against brute force.

On quadratic exponentials the flow acts by a finite resolvent; the oracle
re-computes the same values by an honest Gaussian convolution over R^2,
in the problem's own coordinates: the whole exponent of the convolution is
integrated by a complex-scaled Gauss-Hermite rule whose order is derived
from its remainder.
The scalar family shows the whole story: the symbol of the operator with
exponent lam |x|^2 is (1-lam)^{-1} exp(lam |x|^2/(1-lam)), so the sign of
Re(lam/(1-lam)) is exactly the boundedness of the symbol, and the circle
|1 - 2 lam| = 1 is the phase boundary.
"""

import numpy as np

from bargtop.model import ModelInstance, model_problem
from bargtop.oracle import numeric_weyl
from bargtop.weyl import classify_symbol, weyl_symbol

if __name__ == "__main__":
    print(f"{'lam':>12s} {'coeff':>22s} {'|C|':>8s} {'class':>24s} "
          f"{'a(1) closed':>12s} {'a(1) quad':>12s}")
    for lam in (-0.5, -2.0, 0.2, 1j, 0.1 + 0.3j, -0.3 + 0.8j):
        inst = ModelInstance(1, lam, np.zeros((1, 1)))
        problem = model_problem(inst)
        symbol = weyl_symbol(problem)
        cls = classify_symbol(symbol)
        x = np.array([1.0 + 0j])
        closed = symbol.evaluate(x)
        quad = numeric_weyl(problem, x)
        coeff = symbol.g.qxbx[0, 0]
        print(f"{str(lam):>12s} {f'{coeff:+.4f}':>22s} "
              f"{symbol.prefactor_modulus:8.4f} {cls.label:>24s} "
              f"{abs(closed):12.6f} {abs(quad):12.6f}")

    print("\npointwise agreement on a disc (lam = -1/2):")
    problem = model_problem(ModelInstance(1, -0.5, np.zeros((1, 1))))
    symbol = weyl_symbol(problem)
    worst = 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-1.4, 1.4, 1) + 1j * rng.uniform(-1.4, 1.4, 1)
        ref = symbol.evaluate(x)
        got = numeric_weyl(problem, x)
        worst = max(worst, abs(got - ref) / abs(ref))
    print(f"  max relative deviation over 20 points: {worst:.2e}")
