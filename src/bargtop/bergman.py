"""Coherent states and the quadratic exponent of the operator on them.

For a Hermitian weight (no pluriharmonic part) the operator sends the
normalized coherent state at w to C e^{2 f(x, conj(w)) - Phi(w)}, where
f(x, z) is the critical value of a quadratic objective in the integrated
variables (y, theta):

    2 f(x, z) = vc_{y,theta}( 2 Psi(x,theta) + Q(y,theta)
                              + 2 Psi(y,z) - 2 Psi(y,theta) ).

The critical point solves a 2n x 2n block linear system; all growth
criteria reduce to definiteness of real quadratic forms built from f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularSystem
from .forms import (
    Weight,
    classification_tolerance,
    classify_real_form,
    interleave,
    realify,
)
from .symplectic import LinearCanonicalMap, QuadraticPhase, canonical_from_phase
from .toeplitz import SubVerdict, ToeplitzProblem, VerdictClass

__all__ = [
    "CriticalSystem",
    "BergmanForm",
    "CriterionResult",
    "critical_system",
    "bergman_exponent",
    "coherent_route_map",
    "coherent_overlap",
    "growth_exponent",
    "coherent_bound_criterion",
    "growth_subverdict",
]


def _require_hermitian_weight(weight: Weight, what: str) -> None:
    if not weight.is_hermitian:
        raise ValueError(f"{what} requires a weight without pluriharmonic part; reduce first")


@dataclass
class CriticalSystem:
    """Block matrix of the critical-point equations and its health margins.

    ``amat`` is [[2H - Qxbx, -Qxbxb], [-Qxx, 2H^T - Qxbx^T]]; it must be
    invertible, along with its upper-left block (the admissibility
    determinant) and the lower-right block of its inverse.
    """

    amat: np.ndarray
    h: np.ndarray
    margins: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.h.shape[0]


def critical_system(problem: ToeplitzProblem) -> CriticalSystem:
    """Assemble and sanity-check the critical-point system."""
    problem.require_admissible()
    _require_hermitian_weight(problem.weight, "the coherent-state exponent")
    h = problem.weight.h
    q = problem.q
    amat = np.block([
        [2.0 * h - q.qxbx, -q.qxbxb],
        [-q.qxx, 2.0 * h.T - q.qxbx.T],
    ])

    def rel_inv_margin(m):
        sv = np.linalg.svd(m, compute_uv=False)
        return float(sv[-1] / max(sv[0], 1e-300))

    margins = {"system": rel_inv_margin(amat), "a11": rel_inv_margin(2.0 * h - q.qxbx)}
    if margins["system"] <= 1e-12:
        raise SingularSystem(f"critical system singular (margin {margins['system']:.3e})")
    if margins["a11"] <= 1e-12:
        raise SingularSystem(f"upper-left block singular (margin {margins['a11']:.3e})")
    n = problem.n
    b22 = np.linalg.inv(amat)[n:, n:]
    margins["b22"] = rel_inv_margin(b22)
    if margins["b22"] <= 1e-12:
        raise SingularSystem(f"Schur block singular (margin {margins['b22']:.3e})")
    return CriticalSystem(amat, h.copy(), margins)


@dataclass
class BergmanForm:
    """Holomorphic quadratic exponent f(x, z) = x.fxx x/2 + x.fxz z + z.fzz z/2."""

    fxx: np.ndarray
    fxz: np.ndarray
    fzz: np.ndarray
    route_residual: float = 0.0

    def __post_init__(self):
        self.fxx = np.asarray(self.fxx, dtype=complex)
        self.fxz = np.asarray(self.fxz, dtype=complex)
        self.fzz = np.asarray(self.fzz, dtype=complex)
        sv = np.linalg.svd(self.fxz, compute_uv=False)
        if sv[-1] <= 1e-10 * max(sv[0], 1e-300):
            raise SingularSystem(
                f"mixed block of the coherent exponent is singular (margin {sv[-1] / sv[0]:.3e})"
            )

    @property
    def n(self) -> int:
        return self.fxx.shape[0]

    def value(self, x, z) -> complex:
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return complex(0.5 * x @ self.fxx @ x + x @ self.fxz @ z + 0.5 * z @ self.fzz @ z)

    def scaled_mixed_det(self) -> float:
        """|det fxz| normalized by the spectral norm, the degeneracy gauge."""
        sv = np.linalg.svd(self.fxz, compute_uv=False)
        return float(abs(np.linalg.det(self.fxz)) / max(sv[0], 1e-300) ** self.n)


def bergman_exponent(problem: ToeplitzProblem) -> BergmanForm:
    """Solve the critical system and substitute back.

    At the critical point, 2f = Hx.theta + H^T z.y, and the derivative
    identities f'_x = H^T theta(x,z), f'_z = H y(x,z) give a second,
    independent route to the mixed block; their difference is recorded as
    ``route_residual``.
    """
    cs = critical_system(problem)
    n = cs.n
    h = cs.h
    rhs = np.block([
        [2.0 * h, np.zeros((n, n))],
        [np.zeros((n, n)), 2.0 * h.T],
    ])
    sol = np.linalg.solve(cs.amat, rhs)  # (y; theta) as functions of (x, z)
    yx, yz = sol[:n, :n], sol[:n, n:]
    tx, tz = sol[n:, :n], sol[n:, n:]

    fxx = h.T @ tx
    fzz = h @ yz
    fxz = h.T @ tz
    fxz_alt = (h @ yx).T
    scale = max(1.0, float(np.max(np.abs(fxz))))
    residual = float(np.max(np.abs(fxz - fxz_alt)) / scale)
    fxx = (fxx + fxx.T) / 2.0
    fzz = (fzz + fzz.T) / 2.0
    return BergmanForm(fxx, fxz, fzz, route_residual=residual)


def coherent_route_map(problem: ToeplitzProblem) -> LinearCanonicalMap:
    """Canonical transformation from the coherent-state phase
    (2/i)(f(x,z) - Psi(y,z)); equals the kernel-phase route."""
    f = bergman_exponent(problem)
    n = f.n
    h = problem.weight.h
    z = np.zeros((n, n), dtype=complex)
    hess = np.block([
        [-2j * f.fxx, z, -2j * f.fxz],
        [z, z, 2j * h.T],
        [-2j * f.fxz.T, 2j * h, -2j * f.fzz],
    ])
    return canonical_from_phase(QuadraticPhase(n, hess))


def coherent_overlap(weight: Weight, w, z) -> complex:
    """Inner product of normalized coherent states at w and z.

    Equals exp(2 Psi(z, conj(w)) - Phi(z) - Phi(w)); the modulus is
    exp(-Phi(z - w)) and only it is contractual.
    """
    _require_hermitian_weight(weight, "coherent states")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    psi = (weight.h @ z) @ np.conj(w)
    return complex(np.exp(2.0 * psi - weight.value(z) - weight.value(w)))


def _growth_quadratic_matrix(f: BergmanForm, weight: Weight) -> np.ndarray:
    """2 Re(x.fxx x) - 2 Phi(x), the x-quadratic part of the growth
    exponent, as a real symmetric matrix in interleaved coordinates."""
    return realify(4.0 * (f.fxx - weight.p), -2.0 * weight.h, np.zeros_like(weight.h))


def growth_exponent(f: BergmanForm, weight: Weight, w, tol=None) -> float:
    """sup_x (4 Re f(x, conj(w)) - 2 Phi(x)) - 2 Phi(w).

    The sup is a closed-form quadratic maximum when the x-quadratic part
    is negative definite; otherwise the norm of the operator on the
    coherent state at w diverges and the value is +inf (a value, not an
    error: it is the unboundedness witness).
    """
    _require_hermitian_weight(weight, "the growth exponent")
    if tol is None:
        tol = classification_tolerance()
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    wbar = np.conj(w)

    mq = _growth_quadratic_matrix(f, weight)
    eigs = np.linalg.eigvalsh(mq)
    scale = float(np.max(np.abs(eigs)))
    if eigs[-1] >= -tol * scale:
        return math.inf

    # linear part 4 Re(x.fxz wbar) = lin . t
    lin = 4.0 * interleave(np.conj(f.fxz @ wbar))
    const = 2.0 * (wbar @ f.fzz @ wbar).real
    peak = const - 0.25 * lin @ np.linalg.solve(mq, lin)
    return float(peak - 2.0 * weight.value(w))


@dataclass
class CriterionResult:
    """Definiteness outcome of Phi(x) + Phi(w) - 2 Re f(x, conj(w))."""

    ok: bool
    margin: float
    scale: float
    strict: bool


def _growth_gap_matrix(f: BergmanForm, weight: Weight) -> np.ndarray:
    """Phi(x) + Phi(w) - 2 Re f(x, conj(w)) as a real symmetric matrix in
    the interleaved coordinates of the stacked variable (x, w)."""
    n = f.n
    h, p = weight.h, weight.p
    z = np.zeros((n, n))
    a = np.block([[2.0 * (p - f.fxx), z], [z, 2.0 * p]])
    b = np.block([[h, z], [-2.0 * f.fxz.T, h]])
    c = np.block([[z, z], [z, -2.0 * f.fzz]])
    return realify(a, b, c)


def coherent_bound_criterion(
    f: BergmanForm, weight: Weight, strict: bool = False, tol=None
) -> CriterionResult:
    """Check 2 Re f(x, conj(w)) <= Phi(x) + Phi(w) for all (x, w)
    (boundedness); with ``strict`` the inequality must be strict away from
    the origin (compactness)."""
    _require_hermitian_weight(weight, "the growth criterion")
    label, margin, scale = classify_real_form(_growth_gap_matrix(f, weight), tol)
    ok = label == "definite" if strict else label != "indefinite"
    return CriterionResult(bool(ok), margin, scale, strict)


def growth_subverdict(f: BergmanForm, weight: Weight, tol=None) -> SubVerdict:
    """Three-way verdict from the growth criterion's margin."""
    _require_hermitian_weight(weight, "the growth criterion")
    label, margin, scale = classify_real_form(_growth_gap_matrix(f, weight), tol)
    verdict = {
        "definite": VerdictClass.COMPACT,
        "semidefinite": VerdictClass.BOUNDED_NOT_COMPACT,
        "indefinite": VerdictClass.UNBOUNDED,
    }[label]
    return SubVerdict("bergman", verdict, margin, scale)
