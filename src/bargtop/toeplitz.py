"""Toeplitz problems on Bargmann spaces and the operator-level verdict.

A problem is a pair (weight, q) with symbol e^q.  The operator is encoded
by a quadratic phase in (x, y, theta); eliminating theta yields a complex
linear canonical transformation whose positivity relative to the weight's
phase-space graph decides boundedness (nonnegative) and compactness
(definite).  Independent routes (Weyl symbol sign, coherent-state growth,
closed-form model family) are attached as witnesses and must agree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DisagreementError, InadmissibleProblem
from .forms import (
    Admissibility,
    ComplexQuadraticForm,
    Weight,
    check_admissible,
    classification_tolerance,
    split_herm_plh,
)
from .symplectic import (
    LinearCanonicalMap,
    PositivityCertificate,
    QuadraticPhase,
    canonical_from_phase,
    involution_for_weight,
    pluriharmonic_shear,
    positivity_certificate,
)

if TYPE_CHECKING:
    from .bergman import BergmanForm
    from .weyl import WeylSymbol

__all__ = [
    "ToeplitzProblem",
    "VerdictClass",
    "SubVerdict",
    "Verdict",
    "AGREEMENT_BAND",
    "build_phase",
    "canonical_map",
    "reduce_and_factor",
    "classify_operator",
]

#: Sub-verdicts whose margin exceeds this band (relative to their own
#: scale) are considered confident; confident conflicts raise.
AGREEMENT_BAND = 1e-8


class ToeplitzProblem:
    """A weight together with a quadratic symbol exponent.

    ``tol`` is the relative tolerance of every definiteness decision on
    the problem, admissibility included; it defaults to
    :func:`classification_tolerance` at construction.  Admissibility is
    checked once at construction and cached (``admissibility`` passes in
    a check already made for the same H and q); operations that require
    it call :meth:`require_admissible`.
    """

    def __init__(self, weight: Weight, q: ComplexQuadraticForm, tol=None,
                 admissibility: Admissibility | None = None):
        if weight.n != q.n:
            raise ValueError("weight and symbol dimensions disagree")
        self.weight = weight
        self.q = q
        self.tol = classification_tolerance() if tol is None else tol
        if admissibility is None:
            admissibility = check_admissible(weight, q, self.tol)
        self.admissibility: Admissibility = admissibility

    @property
    def n(self) -> int:
        return self.weight.n

    def require_admissible(self) -> None:
        if not self.admissibility.ok:
            raise InadmissibleProblem("; ".join(self.admissibility.failures))

    def reduced(self) -> "ToeplitzProblem":
        """The unitarily equivalent problem with pluriharmonic part removed.

        Admissibility depends only on the Levi form and q, so the check
        made for this problem carries over.
        """
        herm, _ = split_herm_plh(self.weight)
        return ToeplitzProblem(herm, self.q, self.tol, self.admissibility)


class VerdictClass(enum.Enum):
    INADMISSIBLE = "inadmissible"
    UNBOUNDED = "unbounded"
    BOUNDED_NOT_COMPACT = "bounded_not_compact"
    COMPACT = "compact"


@dataclass
class SubVerdict:
    """One classification route's outcome with its signed margin."""

    method: str
    verdict: VerdictClass
    margin: float
    scale: float

    @property
    def confident(self) -> bool:
        # the floor makes the band absolute for unit-scale data, so margins
        # made of rounding noise never count as confident
        return abs(self.margin) > AGREEMENT_BAND * max(self.scale, 1.0)


@dataclass
class Verdict:
    """Operator-level verdict.  The positivity certificate is the verdict
    of record; the other routes are witnesses and must not conflict.

    ``kappa`` is the canonical map of the problem as given, ``symbol``
    its Weyl symbol and ``bergman_form`` the coherent-state exponent of
    the reduced problem: the quantities the witnesses were computed from.
    """

    verdict: VerdictClass
    margin: float
    boundary: bool = False
    witnesses: dict = field(default_factory=dict)
    certificate: PositivityCertificate | None = None
    admissibility: Admissibility | None = None
    kappa: LinearCanonicalMap | None = None
    symbol: WeylSymbol | None = None
    bergman_form: BergmanForm | None = None


def build_phase(problem: ToeplitzProblem) -> QuadraticPhase:
    """Quadratic phase F(x, y, theta) of the operator kernel.

    F = (2/i)(Psi(x, theta) - Psi(y, theta)) + (1/i) Q(y, theta) with Psi,
    Q the polarizations of the weight and the symbol exponent.
    """
    problem.require_admissible()
    n = problem.n
    h = problem.weight.h
    p = problem.weight.p
    q = problem.q
    z = np.zeros((n, n), dtype=complex)

    fxx = -2j * p
    fxy = z
    fxt = -2j * h.T
    fyy = 2j * p - 1j * q.qxx
    fyt = 2j * h.T - 1j * q.qxbx.T
    ftt = -1j * q.qxbxb

    hess = np.block([
        [fxx, fxy, fxt],
        [fxy.T, fyy, fyt],
        [fxt.T, fyt.T, ftt],
    ])
    return QuadraticPhase(n, hess)


def canonical_map(problem: ToeplitzProblem) -> LinearCanonicalMap:
    """The canonical transformation attached to the problem's phase."""
    return canonical_from_phase(build_phase(problem))


def reduce_and_factor(
    problem: ToeplitzProblem,
    reduced: ToeplitzProblem | None = None,
    k_full: LinearCanonicalMap | None = None,
):
    """Remove the pluriharmonic part and verify the shear factorization.

    Returns ``(kappa_herm, residual)`` where ``kappa_herm`` is the
    canonical map of the reduced problem and ``residual`` measures
    ``K - S^{-1} K_herm S`` for the pluriharmonic shear S.  A caller that
    already holds ``problem.reduced()`` or ``K = canonical_map(problem)``
    passes them in so neither is built twice.
    """
    problem.require_admissible()
    if reduced is None:
        reduced = problem.reduced()
    if k_full is None:
        k_full = canonical_map(problem)
    _, a_matrix = split_herm_plh(problem.weight)
    k_herm = canonical_map(reduced)
    shear = pluriharmonic_shear(a_matrix)
    recomposed = np.linalg.inv(shear.k) @ k_herm.k @ shear.k
    residual = float(
        np.max(np.abs(k_full.k - recomposed)) / max(1.0, np.max(np.abs(k_full.k)))
    )
    return k_herm, residual


def _certificate_subverdict(cert: PositivityCertificate) -> SubVerdict:
    label_map = {
        "definite": VerdictClass.COMPACT,
        "semidefinite": VerdictClass.BOUNDED_NOT_COMPACT,
        "indefinite": VerdictClass.UNBOUNDED,
    }
    return SubVerdict("certificate", label_map[cert.classification], cert.margin, cert.scale)


def classify_operator(problem: ToeplitzProblem) -> Verdict:
    """Classify the operator as unbounded, bounded, or compact.

    The verdict of record comes from the positivity certificate of the
    reduced canonical transformation.  Weyl-symbol and coherent-growth
    witnesses (and the closed-form verdict when the problem belongs to
    the radial model family) are attached; if two confident witnesses
    disagree a :class:`DisagreementError` is raised, never a silently
    merged verdict.  Every definiteness decision uses ``problem.tol``.
    """
    from . import bergman, model, weyl

    tol = problem.tol
    if not problem.admissibility.ok:
        return Verdict(
            VerdictClass.INADMISSIBLE,
            margin=math.nan,
            witnesses={},
            admissibility=problem.admissibility,
        )

    reduced = problem.reduced()
    kappa = canonical_map(problem)
    k_herm, _ = reduce_and_factor(problem, reduced, kappa)
    iota = involution_for_weight(reduced.weight)
    cert = positivity_certificate(k_herm, iota, tol)
    witnesses = {"certificate": _certificate_subverdict(cert)}

    symbol = weyl.weyl_symbol(problem)
    witnesses["weyl"] = weyl.symbol_subverdict(symbol, tol)

    f = bergman.bergman_exponent(reduced)
    witnesses["bergman"] = bergman.growth_subverdict(f, reduced.weight, tol)

    instance = model.detect_model(problem)
    if instance is not None:
        witnesses["model"] = model.model_subverdict(instance)

    confident = {
        name: sub.verdict
        for name, sub in witnesses.items()
        if sub.confident and sub.verdict is not VerdictClass.BOUNDED_NOT_COMPACT
    }
    if len(set(confident.values())) > 1:
        detail = ", ".join(f"{k}={v.value} ({witnesses[k].margin:.3e})" for k, v in confident.items())
        raise DisagreementError(f"independent routes disagree: {detail}")

    record = witnesses["certificate"]
    boundary = not record.confident
    return Verdict(
        record.verdict,
        margin=cert.margin,
        boundary=boundary,
        witnesses=witnesses,
        certificate=cert,
        admissibility=problem.admissibility,
        kappa=kappa,
        symbol=symbol,
        bergman_form=f,
    )
