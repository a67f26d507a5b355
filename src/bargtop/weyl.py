"""Closed-form Weyl symbol of a Gaussian-symbol Toeplitz operator.

On the weight's phase-space graph, parameterized by x, the Weyl symbol is
the heat flow exp((1/4) H^{-1}-weighted d_x.d_xbar) applied to e^q.  On a
quadratic exponential the flow acts by a finite resolvent: with u =
(x, xbar), Q the Hessian of q and S the off-diagonal doubling of H^{-1}/4,

    exp((1/2) d.S d) e^{u.Qu/2} = det(I - SQ)^{-1/2} e^{u.Q(I - SQ)^{-1}u/2}.

It is computed at the normal form H = I/4, where S = [[0, I], [I, 0]], and
taken back to the problem's coordinates by g(x) = g'(M x).

Only the modulus of the prefactor is contractual; the phase depends on a
branch choice and is carried along for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolventSingular
from .forms import (
    ComplexQuadraticForm,
    _record,
    classify_real_form,
    real_part_matrix,
)
from .toeplitz import DEFINITENESS_VERDICT, SubVerdict, ToeplitzProblem, _symbol_to_file

__all__ = [
    "WeylSymbol", "SymbolClassification", "weyl_symbol", "normal_symbol", "classify_symbol",
    "symbol_subverdict",
]


@dataclass
class WeylSymbol:
    """a(x) = C exp(g(x)) along the graph, with g a complex quadratic form.

    ``log_c`` is a logarithm of the prefactor; exp(Re log_c) = |C| is the
    contractual part.
    """

    log_c: complex
    g: ComplexQuadraticForm

    @property
    def prefactor_modulus(self) -> float:
        return float(np.exp(self.log_c.real))

    def evaluate(self, x) -> complex:
        """Symbol value at the graph point over x (phase up to branch)."""
        return complex(np.exp(self.log_c + self.g.value(x)))


def weyl_symbol(problem: ToeplitzProblem) -> WeylSymbol:
    """Heat-flow image of e^q as a Gaussian with quadratic exponent, in the
    coordinates of ``problem``."""
    problem.require_admissible()
    return _symbol_to_file(problem, normal_symbol(problem.normal.q))


def normal_symbol(q: ComplexQuadraticForm) -> WeylSymbol:
    """The Weyl symbol of Top(e^q) on the weight |x|^2/4.

    There S = [[0, I], [I, 0]], so S Q is Q = [[Qxx, Qxbx^T], [Qxbx, Qxbxb]]
    with its block rows swapped.
    """
    n = q.n
    qmat = np.empty((2 * n, 2 * n), dtype=complex)
    qmat[:n, :n], qmat[:n, n:], qmat[n:, :n], qmat[n:, n:] = q.qxx, q.qxbx.T, q.qxbx, q.qxbxb
    resolvent = np.eye(2 * n) - np.concatenate((qmat[n:], qmat[:n]))
    sv = np.linalg.svd(resolvent, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise ResolventSingular(
            "heat-flow resolvent is singular; the Weyl symbol is not a finite Gaussian"
        )
    g2 = qmat @ np.linalg.inv(resolvent)
    g2 = (g2 + g2.T) / 2.0
    g = _record(ComplexQuadraticForm, qxx=g2[:n, :n], qxbx=g2[n:, :n], qxbxb=g2[n:, n:])
    sign, logabs = np.linalg.slogdet(resolvent)
    log_c = -0.5 * (logabs + 1j * np.angle(sign))
    return WeylSymbol(log_c, g)


@dataclass
class SymbolClassification:
    """Sign class of Re g as a real quadratic form.

    ``label`` is "vanishing_at_infinity" (Re g negative definite),
    "bounded_not_vanishing" (negative semidefinite) or "unbounded".
    ``margin`` is -max eigenvalue of Re g, positive on the vanishing side.
    """

    label: str
    margin: float
    scale: float


def classify_symbol(symbol: WeylSymbol, tol=None) -> SymbolClassification:
    """Classify the symbol by the sign of its real exponent.

    -Re g is classified as a real quadratic form; its smallest eigenvalue
    (-max eigenvalue of Re g) is the margin, positive on the vanishing side.
    """
    label, margin, scale = classify_real_form(-real_part_matrix(symbol.g), tol)
    name = {
        "definite": "vanishing_at_infinity",
        "semidefinite": "bounded_not_vanishing",
        "indefinite": "unbounded",
    }[label]
    return SymbolClassification(name, margin, scale)


def symbol_subverdict(symbol: WeylSymbol, tol=None) -> SubVerdict:
    label, margin, scale = classify_real_form(-real_part_matrix(symbol.g), tol)
    return SubVerdict("weyl", DEFINITENESS_VERDICT[label], margin, scale)
