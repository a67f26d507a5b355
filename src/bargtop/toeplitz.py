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

from . import _lapack
from .errors import DisagreementError, InadmissibleProblem, NumericalFailure
from .forms import (
    Admissibility,
    ComplexQuadraticForm,
    Weight,
    _identity,
    _model_weight,
    _record,
    check_admissible,
    classification_tolerance,
)
from .symplectic import (
    LinearCanonicalMap,
    PositivityCertificate,
    QuadraticPhase,
    canonical_from_phase,
    normal_involution,
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
    "normal_phase",
    "classify_operator",
]

#: Sub-verdicts whose margin exceeds this band (relative to their own
#: scale) are considered confident; confident conflicts raise.
AGREEMENT_BAND = 1e-8


def _pull_back(form: ComplexQuadraticForm, a: np.ndarray):
    """The blocks of x -> form(a x): a^T Qxx a, a^H Qxbx a, a^H Qxbxb conj(a)."""
    ah = a.conj().T
    return a.T @ form.qxx @ a, ah @ form.qxbx @ a, ah @ form.qxbxb @ a.conj()


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
        model = _model_weight(n)
        if weight is model or ((weight.h == model.h).all() and not weight.p.any()):
            self.frame = self.frame_inv = _identity(n)
            self.normal = self
            self.admissibility: Admissibility = check_admissible(weight, q, self.tol)
        else:
            self.frame = 2.0 * _lapack.cholesky(weight.h).conj().T
            self.frame_inv = _lapack.inv(self.frame)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    q_normal = ComplexQuadraticForm(*_pull_back(q, self.frame_inv))
            except ValueError as exc:
                raise NumericalFailure(f"normal form of q: {exc}") from exc
            self.normal = ToeplitzProblem(model, q_normal, self.tol)
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
        m, inv = self.frame, self.frame_inv
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


def normal_phase(q: ComplexQuadraticForm) -> QuadraticPhase:
    """The phase of Top(e^q) on the weight |x|^2/4 (``verify.build_phase`` at
    H = I/4, P = 0), filled in place from the blocks of q; it is symmetric
    by construction."""
    n = q.n
    w = _model_weight(n)
    fxt, fyt = -2j * w.h.T, 2j * w.h.T - 1j * q.qxbx.T
    hess = np.zeros((3 * n, 3 * n), dtype=complex)
    x, y, t = (slice(k * n, (k + 1) * n) for k in range(3))
    hess[x, x], hess[y, y], hess[t, t] = -2j * w.p, 2j * w.p - 1j * q.qxx, -1j * q.qxbxb
    hess[x, t], hess[t, x], hess[y, t], hess[t, y] = fxt, fxt.T, fyt, fyt.T
    return _record(QuadraticPhase, n=n, hess=hess)


# The normal form's K', Weyl symbol and coherent exponent, taken back to the
# coordinates of a problem: K = T^{-1} K' T, g(x) = g'(M x) and
# f(x, z) = f'(M x, conj(M) z), the Weyl prefactor unchanged.  They were
# checked on the normal form and are not checked again.

def _kappa_to_file(problem: ToeplitzProblem, kappa: LinearCanonicalMap) -> LinearCanonicalMap:
    if problem.normal is problem:
        return kappa
    t, t_inv = problem.normal_map()
    return _record(LinearCanonicalMap, k=t_inv @ kappa.k @ t)


def _symbol_to_file(problem: ToeplitzProblem, symbol: WeylSymbol) -> WeylSymbol:
    if problem.normal is problem:
        return symbol
    xx, xbx, xbxb = _pull_back(symbol.g, problem.frame)
    # symmetric up to rounding; symmetrized as a validated form would be
    xx, xbxb = xx / 2.0, xbxb / 2.0
    g = _record(ComplexQuadraticForm, qxx=xx + xx.T, qxbx=xbx, qxbxb=xbxb + xbxb.T)
    return type(symbol)(symbol.log_c, g)


def _exponent_to_file(problem: ToeplitzProblem, f: BergmanForm) -> BergmanForm:
    if problem.normal is problem:
        return f
    m, mb = problem.frame, problem.frame.conj()
    return _record(type(f), fxx=m.T @ f.fxx @ m, fxz=m.T @ f.fxz @ mb, fzz=mb.T @ f.fzz @ mb,
                   route_residual=f.route_residual)


def classify_operator(problem: ToeplitzProblem) -> Verdict:
    """Classify the operator as unbounded, bounded, or compact.

    Every route runs on ``problem.normal``, through the kernels that fill
    its matrices from the blocks of q' at H = I/4, P = 0, so margins are
    scale-free.  The verdict of record comes from the positivity
    certificate of the normal form's canonical transformation relative to
    the constant involution of |x|^2/4.  Weyl-symbol and coherent-growth
    witnesses (and the closed-form verdict when the normal form belongs to
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

    normal = problem.normal
    kappa = canonical_from_phase(normal_phase(normal.q))
    cert = positivity_certificate(kappa, normal_involution(problem.n), tol)
    witnesses = {"certificate": SubVerdict(
        "certificate", DEFINITENESS_VERDICT[cert.classification], cert.margin, cert.scale)}

    symbol = weyl.normal_symbol(normal.q)
    witnesses["weyl"] = weyl.symbol_subverdict(symbol, tol)

    f = bergman.normal_exponent(normal.q, problem.admissibility.mixed_singular_values)
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
    return Verdict(
        record.verdict,
        margin=cert.margin,
        boundary=boundary,
        witnesses=witnesses,
        certificate=cert,
        admissibility=problem.admissibility,
        kappa=_kappa_to_file(problem, kappa),
        symbol=_symbol_to_file(problem, symbol),
        bergman_form=_exponent_to_file(problem, f),
    )
