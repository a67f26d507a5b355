"""The explicitly solvable family on the radial weight |x|^2 / 4.

Instances are q(x) = lam |x|^2 + A xbar.xbar with A complex symmetric.
Everything is closed form: admissibility is Re lam + ||A|| < 1/4, the
canonical transformation is triangular in gamma = 1/(1 - 2 lam), and the
operator is bounded iff 4 ||A|| <= (1 - |gamma|^2)/|gamma|^2, compact iff
the inequality is strict.  This family is the analytic ground truth the
general pipeline is validated against.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import InadmissibleProblem
from .forms import ComplexQuadraticForm, _model_weight
from .symplectic import LinearCanonicalMap
from .toeplitz import (
    AGREEMENT_BAND,
    SubVerdict,
    ToeplitzProblem,
    Verdict,
    VerdictClass,
)

__all__ = [
    "ModelInstance",
    "model_problem",
    "detect_model",
    "classify_model",
    "model_subverdict",
    "closed_form_map",
    "positivity_coefficients",
]


@dataclass
class ModelInstance:
    """Parameters (lam, A) of one member of the radial family; ``gamma`` =
    1/(1 - 2 lam) and ``norm_a`` = ||A|| are computed once, at construction."""

    n: int
    lam: complex
    a: np.ndarray
    gamma: complex = field(init=False)
    norm_a: float = field(init=False)

    def __post_init__(self):
        self.lam = complex(self.lam)
        self.a = np.atleast_2d(np.asarray(self.a, dtype=complex))
        if not (cmath.isfinite(self.lam) and np.isfinite(self.a).all()):
            raise ValueError("lam and A must be finite")
        if self.a.shape != (self.n, self.n):
            raise ValueError("A must be n x n")
        if np.max(np.abs(self.a - self.a.T)) > 1e-12 * (np.max(np.abs(self.a)) + 1.0):
            raise ValueError("A must be symmetric")
        # lam = 1/2 is far outside admissibility; gamma is the point at infinity there
        d = 1.0 - 2.0 * self.lam
        self.gamma = 1.0 / d if d else complex(cmath.inf)
        self.norm_a = float(np.linalg.svd(self.a, compute_uv=False)[0])

    @property
    def admissibility_margin(self) -> float:
        return float(0.25 - self.lam.real - self.norm_a)

    @property
    def is_admissible(self) -> bool:
        return self.admissibility_margin > 0.0

    @property
    def boundedness_margin(self) -> float:
        """(1 - |gamma|^2)/|gamma|^2 - 4 ||A||; sign decides the verdict."""
        return model_subverdict(self).margin


def model_problem(instance: ModelInstance) -> ToeplitzProblem:
    """The instance as a general problem on the weight |x|^2 / 4."""
    n = instance.n
    q = ComplexQuadraticForm(
        np.zeros((n, n)), instance.lam * np.eye(n), 2.0 * instance.a
    )
    return ToeplitzProblem(_model_weight(n), q)


def detect_model(problem: ToeplitzProblem) -> ModelInstance | None:
    """Recognize a problem of the radial family; None when it is not one."""
    n, tol = problem.n, 1e-12
    w = problem.weight
    if w is not _model_weight(n):  # a normal form's weight is |x|^2/4 exactly
        scale_h = np.max(np.abs(w.h)) + 1.0
        if np.max(np.abs(w.h - np.eye(n) / 4.0)) > tol * scale_h or not w.is_hermitian:
            return None
    q = problem.q
    xx, xbx = np.abs(q.qxx).max(), np.abs(q.qxbx).max()
    scale_q = max(xx, xbx, np.abs(q.qxbxb).max(), 1.0)
    if xx > tol * scale_q:
        return None
    lam = complex(np.trace(q.qxbx) / n)
    if np.abs(q.qxbx - lam * np.eye(n)).max() > tol * scale_q:
        return None
    return ModelInstance(n, lam, q.qxbxb / 2.0)


def classify_model(instance: ModelInstance) -> Verdict:
    """Closed-form verdict: unbounded / bounded-not-compact / compact by
    the sign of the boundedness margin, with a tolerance band around the
    equality case."""
    if not instance.is_admissible:
        raise InadmissibleProblem(
            f"Re lam + ||A|| = {instance.lam.real + instance.norm_a:.6f} >= 1/4"
        )
    sub = model_subverdict(instance)
    return Verdict(sub.verdict, margin=sub.margin, boundary=not sub.confident,
                   witnesses={"model": sub})


def model_subverdict(instance: ModelInstance) -> SubVerdict:
    """The boundedness margin as a witness, confident outside ``AGREEMENT_BAND``."""
    g2 = abs(instance.gamma) ** 2
    threshold = (1.0 - g2) / g2
    m = float(threshold - 4.0 * instance.norm_a)
    scale = max(1.0, abs(threshold), 4.0 * instance.norm_a)
    if m > AGREEMENT_BAND * scale:
        verdict = VerdictClass.COMPACT
    elif m < -AGREEMENT_BAND * scale:
        verdict = VerdictClass.UNBOUNDED
    else:
        verdict = VerdictClass.BOUNDED_NOT_COMPACT
    return SubVerdict("model", verdict, m, scale)


def closed_form_map(instance: ModelInstance) -> LinearCanonicalMap:
    """(y, eta) -> (y/gamma - 8i gamma A eta, gamma eta)."""
    if not instance.is_admissible:
        raise InadmissibleProblem("closed-form map defined for admissible instances")
    n = instance.n
    g = instance.gamma
    eye = np.eye(n)
    k = np.block([
        [eye / g, -8j * g * instance.a],
        [np.zeros((n, n)), g * eye],
    ])
    return LinearCanonicalMap(k)


def positivity_coefficients(instance: ModelInstance):
    """Coefficients (a, b, c) of the completed-square reduction of the
    positivity form, valid when |gamma| < 1, and the boundedness verdict
    c |eta|^2 >= (|a|^2 - b) |A eta|^2 they encode.

    a = 8|g|^2/(1-|g|^2) * g/conj(g),  b = 64|g|^4/(1-|g|^2),
    c = 4|g|^2, and |a|^2 - b = 64|g|^6/(1-|g|^2)^2.
    """
    g = instance.gamma
    g2 = abs(g) ** 2
    if g2 >= 1.0:
        raise ValueError("the completed-square reduction assumes |gamma| < 1")
    a = 8.0 * g2 / (1.0 - g2) * (g / np.conj(g))
    b = 64.0 * g2 ** 2 / (1.0 - g2)
    c = 4.0 * g2
    excess = abs(a) ** 2 - b  # = 64 |g|^6 / (1 - |g|^2)^2 > 0
    ok = bool(c >= excess * instance.norm_a ** 2)
    return complex(a), float(b), float(c), ok
