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
import functools
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DisagreementError, InadmissibleProblem, NumericalFailure
from .forms import (
    Admissibility,
    ComplexQuadraticForm,
    Weight,
    check_admissible,
    classification_tolerance,
)
from .symplectic import (
    LinearCanonicalMap,
    PositivityCertificate,
    QuadraticPhase,
    _involution_closed_hermitian,
    canonical_from_phase,
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
    "DEFINITENESS_VERDICT",
    "build_phase",
    "canonical_map",
    "classify_operator",
]

#: Sub-verdicts whose margin exceeds this band (relative to their own
#: scale) are considered confident; confident conflicts raise.
AGREEMENT_BAND = 1e-8


@functools.cache
def _model_weight(n: int) -> Weight:
    # one |x|^2/4 per dimension, shared by every normal form, so read-only
    weight = Weight.model(n)
    weight.h.flags.writeable = weight.p.flags.writeable = False
    return weight


class ToeplitzProblem:
    """A weight together with a quadratic symbol exponent, and its normal form.

    The pluriharmonic shear (multiplication by e^{-x.P x}) and x' = M x
    with the frame M = 2 chol(H)^H are unitary equivalences that carry the
    problem to ``normal``: the weight |x|^2/4 and q' = q o M^{-1}, the
    problem itself when its weight already is |x|^2/4.

    ``tol`` is the relative tolerance of every definiteness decision on
    the problem, admissibility included; it defaults to
    :func:`classification_tolerance` at construction.  Admissibility is
    checked once, on the normal form (its sign is a congruence
    invariant); operations that require it call :meth:`require_admissible`.
    """

    def __init__(self, weight: Weight, q: ComplexQuadraticForm, tol=None):
        if weight.n != q.n:
            raise ValueError("weight and symbol dimensions disagree")
        self.weight = weight
        self.q = q
        self.tol = classification_tolerance() if tol is None else tol
        n = weight.n
        if np.array_equal(weight.h, np.eye(n) / 4.0) and not weight.p.any():
            self.frame = np.eye(n)
            self.normal = self
            self.admissibility: Admissibility = check_admissible(weight, q, self.tol)
        else:
            self.frame = 2.0 * np.linalg.cholesky(weight.h).conj().T
            inv = np.linalg.inv(self.frame)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    q_normal = ComplexQuadraticForm(
                        inv.T @ q.qxx @ inv, inv.conj().T @ q.qxbx @ inv,
                        inv.conj().T @ q.qxbxb @ inv.conj(),
                    )
            except ValueError as exc:
                raise NumericalFailure(f"normal form of q: {exc}") from exc
            self.normal = ToeplitzProblem(_model_weight(n), q_normal, self.tol)
            self.admissibility = self.normal.admissibility

    @property
    def n(self) -> int:
        return self.weight.n

    def require_admissible(self) -> None:
        if not self.admissibility.ok:
            raise InadmissibleProblem("; ".join(self.admissibility.failures))

    def normal_map(self) -> tuple[np.ndarray, np.ndarray]:
        """``(T, T^{-1})`` for T = diag(M, M^{-T}) S, S the pluriharmonic shear.

        T carries the weight's phase-space graph onto that of |x|^2/4, so
        the canonical map K of this problem is T^{-1} K' T for K' that of
        :attr:`normal`.
        """
        n = self.n
        m, inv = self.frame, np.linalg.inv(self.frame)
        shear = 2j * self.weight.p
        t = np.zeros((2 * n, 2 * n), dtype=complex)
        t_inv = np.zeros_like(t)
        # T = [[M, 0], [M^{-T} 2iP, M^{-T}]], T^{-1} = [[M^{-1}, 0], [-2iP M^{-1}, M^T]]
        t[:n, :n], t[n:, :n], t[n:, n:] = m, inv.T @ shear, inv.T
        t_inv[:n, :n], t_inv[n:, :n], t_inv[n:, n:] = inv, -shear @ inv, m.T
        return t, t_inv


class VerdictClass(enum.Enum):
    INADMISSIBLE = "inadmissible"
    UNBOUNDED = "unbounded"
    BOUNDED_NOT_COMPACT = "bounded_not_compact"
    COMPACT = "compact"


#: What each route's real quadratic form says by its definiteness label
#: (:func:`forms.classify_real_form`): definite is compactness, semidefinite
#: boundedness without it, indefinite unboundedness.
DEFINITENESS_VERDICT = {
    "definite": VerdictClass.COMPACT,
    "semidefinite": VerdictClass.BOUNDED_NOT_COMPACT,
    "indefinite": VerdictClass.UNBOUNDED,
}


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
    its weight's Hermitian part, all in the coordinates of the problem as
    given; the witnesses and their margins come from the same quantities
    of the normal form.
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


def _file_coordinates(problem: ToeplitzProblem, kappa: LinearCanonicalMap,
                      symbol: WeylSymbol, f: BergmanForm):
    """The normal form's K', Weyl symbol and coherent exponent, taken back
    to the coordinates of ``problem``: K = T^{-1} K' T, g(x) = g'(M x) and
    f(x, z) = f'(M x, conj(M) z); the prefactor is unchanged."""
    if problem.normal is problem:
        return kappa, symbol, f
    t, t_inv = problem.normal_map()
    m = problem.frame
    mh, mb = m.conj().T, m.conj()
    g = symbol.g
    g = ComplexQuadraticForm(m.T @ g.qxx @ m, mh @ g.qxbx @ m, mh @ g.qxbxb @ mb)
    return (
        LinearCanonicalMap(t_inv @ kappa.k @ t),
        replace(symbol, g=g),
        replace(f, fxx=m.T @ f.fxx @ m, fxz=m.T @ f.fxz @ mb, fzz=mh @ f.fzz @ mb),
    )


def classify_operator(problem: ToeplitzProblem) -> Verdict:
    """Classify the operator as unbounded, bounded, or compact.

    Every route runs on ``problem.normal``, so margins are scale-free.
    The verdict of record comes from the positivity certificate of the
    normal form's canonical transformation relative to the constant
    involution of |x|^2/4.  Weyl-symbol and coherent-growth witnesses
    (and the closed-form verdict when the normal form belongs to the
    radial model family) are attached; if two confident witnesses
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

    normal = problem.normal
    kappa = canonical_map(normal)
    cert = positivity_certificate(kappa, _involution_closed_hermitian(normal.weight.h), tol)
    witnesses = {"certificate": SubVerdict(
        "certificate", DEFINITENESS_VERDICT[cert.classification], cert.margin, cert.scale)}

    symbol = weyl.weyl_symbol(normal)
    witnesses["weyl"] = weyl.symbol_subverdict(symbol, tol)

    f = bergman.bergman_exponent(normal)
    witnesses["bergman"] = bergman.growth_subverdict(f, normal.weight, tol)

    instance = model.detect_model(normal)
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
    kappa, symbol, f = _file_coordinates(problem, kappa, symbol, f)
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
