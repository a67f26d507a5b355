#!/usr/bin/env python3
"""The Weyl symbol as a heat flow, closed form against brute force.

On quadratic exponentials the flow acts by a finite resolvent; the oracle
re-computes the same values by an honest Gaussian convolution over R^2,
in the problem's own coordinates: the heat kernel times e^q is a Gaussian
in the integration variable, integrated exactly by completing its square.
The scalar family shows the whole story: the symbol of the operator with
exponent lam |x|^2 is (1-lam)^{-1} exp(lam |x|^2/(1-lam)), so the sign of
Re(lam/(1-lam)) is exactly the boundedness of the symbol, and the circle
|1 - 2 lam| = 1 is the phase boundary.
"""

import numpy as np

from bargtop.model import ModelInstance, model_problem
from bargtop.oracle import weyl_convolutions
from bargtop.weyl import symbol_subverdict, weyl_symbol

if __name__ == "__main__":
    print(f"{'lam':>12s} {'coeff':>22s} {'|C|':>8s} {'class':>24s} "
          f"{'a(1) closed':>12s} {'a(1) conv':>12s}")
    for lam in (-0.5, -2.0, 0.2, 1j, 0.1 + 0.3j, -0.3 + 0.8j):
        inst = ModelInstance(1, lam, np.zeros((1, 1)))
        problem = model_problem(inst)
        symbol = weyl_symbol(problem)
        verdict = symbol_subverdict(symbol).verdict
        x = np.array([1.0 + 0j])
        closed = symbol.evaluate(x)
        [conv] = weyl_convolutions(problem, (x,))
        coeff = symbol.g.qxbx[0, 0]
        print(f"{str(lam):>12s} {f'{coeff:+.4f}':>22s} "
              f"{symbol.prefactor_modulus:8.4f} {verdict.value:>24s} "
              f"{abs(closed):12.6f} {abs(conv):12.6f}")

    print("\npointwise agreement on a disc (lam = -1/2):")
    problem = model_problem(ModelInstance(1, -0.5, np.zeros((1, 1))))
    symbol = weyl_symbol(problem)
    rng = np.random.default_rng(0)
    points = [rng.uniform(-1.4, 1.4, 1) + 1j * rng.uniform(-1.4, 1.4, 1) for _ in range(20)]
    worst = max(abs(got - symbol.evaluate(x)) / abs(symbol.evaluate(x))
                for x, got in zip(points, weyl_convolutions(problem, points)))
    print(f"  max relative deviation over 20 points: {worst:.2e}")
