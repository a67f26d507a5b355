#!/usr/bin/env python3
"""Walk through one classification end to end.

We take the radial weight |x|^2/4 and the symbol exponent
q(x) = lam |x|^2 + a xbar^2, build the canonical transformation attached
to the operator, and read the verdict off the eigenvalues of the
positivity form.  Three independent routes are printed side by side.
"""

import numpy as np

from bargtop import (
    classify_operator,
    involution_for_weight,
    canonical_map,
    positivity_certificate,
)
from bargtop.bergman import bergman_exponent, growth_subverdict
from bargtop.model import ModelInstance, classify_model, model_problem
from bargtop.toeplitz import VerdictClass
from bargtop.weyl import symbol_subverdict, weyl_symbol


def walkthrough(lam, a):
    inst = ModelInstance(1, lam, np.array([[a]]))
    print("=" * 64)
    print(f"symbol exponent: q(x) = ({lam}) |x|^2 + ({a}) xbar^2")
    print(f"admissibility margin 1/4 - Re(lam) - |a| = {inst.admissibility_margin:+.4f}")
    if not inst.is_admissible:
        print("  -> not admissible, the operator is not densely defined this way")
        return
    problem = model_problem(inst)

    k = canonical_map(problem)
    print("\ncanonical transformation K on (y, eta):")
    with np.printoptions(precision=4, suppress=True):
        print(k.k)
    print(f"symplectic residual |K^T J K - J| = {k.symplectic_residual():.2e}")

    iota = involution_for_weight(problem.weight)
    cert = positivity_certificate(k, iota)
    print("\npositivity form eigenvalues:", np.round(cert.eigenvalues, 6))
    print(f"certificate: {cert.classification} (margin {cert.margin:+.4f})")

    symbol = weyl_symbol(problem)
    sym_verdict = symbol_subverdict(symbol).verdict
    print(f"Weyl route: exponent coefficient {symbol.g.qxbx[0, 0]:+.4f}, "
          f"|prefactor| {symbol.prefactor_modulus:.4f} -> {sym_verdict.value}")

    f = bergman_exponent(problem)
    res = growth_subverdict(f, problem.weight)
    strict = res.verdict is VerdictClass.COMPACT
    print(f"coherent route: f(x,z) = ({f.fxz[0,0]:+.4f}) xz + ({f.fzz[0,0]/2:+.4f}) z^2, "
          f"strict bound {'holds' if strict else 'fails'} (margin {res.margin:+.4f})")

    closed = classify_model(inst)
    verdict = classify_operator(problem)
    print(f"\nclosed form says:    {closed.verdict.value}")
    print(f"full pipeline says:  {verdict.verdict.value}"
          + ("  [boundary case]" if verdict.boundary else ""))


if __name__ == "__main__":
    walkthrough(-0.5, 0.0)    # contracting: compact operator
    walkthrough(0.2, 0.0)     # expanding: unbounded despite |e^q| blowing up mildly
    walkthrough(1j, 0.1)      # oscillation rescues boundedness: compact
    walkthrough(0.0, 0.1)     # pure shear: unbounded for any nonzero a
    walkthrough(0.0, 0.0)     # identity operator: bounded, not compact
    walkthrough(0.3, 0.0)     # inadmissible
