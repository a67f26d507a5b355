"""Coherent states and the quadratic exponent of the operator on them.

For a Hermitian weight (no pluriharmonic part) the operator sends the
normalized coherent state at w to C e^{2 f(x, conj(w)) - Phi(w)}, where
f(x, z) is the critical value of a quadratic objective in the integrated
variables (y, theta):

    2 f(x, z) = vc_{y,theta}( 2 Psi(x,theta) + Q(y,theta)
                              + 2 Psi(y,z) - 2 Psi(y,theta) ).

The critical point solves a 2n x 2n block linear system; all growth
criteria reduce to definiteness of real quadratic forms built from f.  It is
solved at the normal form H = I/4 and taken back to the problem's
coordinates by f(x, z) = f'(M x, conj(M) z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .errors import SingularSystem
from .forms import (
    ComplexQuadraticForm,
    Weight,
    _model_weight,
    _record,
    classification_tolerance,
    classify_real_form,
    interleave,
    realify,
)
from .toeplitz import DEFINITENESS_VERDICT, SubVerdict, ToeplitzProblem, _exponent_to_file

__all__ = [
    "CriticalSystem",
    "BergmanForm",
    "critical_system",
    "bergman_exponent",
    "normal_exponent",
    "coherent_overlap",
    "growth_exponent",
    "growth_subverdict",
]


def _require_hermitian_weight(weight: Weight, what: str) -> None:
    if not weight.is_hermitian:
        raise ValueError(f"{what} requires a weight without pluriharmonic part; normalize first")


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


def _system_matrix(h: np.ndarray, q: ComplexQuadraticForm) -> np.ndarray:
    n = h.shape[0]
    amat = np.empty((2 * n, 2 * n), dtype=complex)
    amat[:n, :n], amat[:n, n:] = 2.0 * h - q.qxbx, -q.qxbxb
    amat[n:, :n], amat[n:, n:] = -q.qxx, 2.0 * h.T - q.qxbx.T
    return amat


def _rel_inv_margin(sv: np.ndarray) -> float:
    """sigma_min / sigma_max from descending singular values."""
    return float(sv[-1] / max(sv[0], 1e-300))


def _checked_inverse(amat: np.ndarray, a11_sv=None) -> tuple[np.ndarray, dict]:
    """The inverse of the critical system and its three margins; raises
    :class:`SingularSystem` when one of them is 1e-12 or less.

    ``a11_sv`` are the singular values of the upper-left block when they
    are known already: the admissibility check takes them.
    """
    n = amat.shape[0] // 2
    if a11_sv is None:
        a11_sv = _lapack.svdvals(amat[:n, :n])
    margins = {"system": _rel_inv_margin(_lapack.svdvals(amat)), "a11": _rel_inv_margin(a11_sv)}
    if margins["system"] <= 1e-12:
        raise SingularSystem(f"critical system singular (margin {margins['system']:.3e})")
    if margins["a11"] <= 1e-12:
        raise SingularSystem(f"upper-left block singular (margin {margins['a11']:.3e})")
    inv = _lapack.inv(amat)
    margins["b22"] = _rel_inv_margin(_lapack.svdvals(inv[n:, n:]))
    if margins["b22"] <= 1e-12:
        raise SingularSystem(f"Schur block singular (margin {margins['b22']:.3e})")
    return inv, margins


def critical_system(problem: ToeplitzProblem) -> CriticalSystem:
    """Assemble and sanity-check the critical-point system of the problem
    as given (the coherent exponent itself is solved at the normal form)."""
    problem.require_admissible()
    _require_hermitian_weight(problem.weight, "the coherent-state exponent")
    h = problem.weight.h
    amat = _system_matrix(h, problem.q)
    return CriticalSystem(amat, h.copy(), _checked_inverse(amat)[1])


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
        shapes = [m.shape for m in (self.fxx, self.fxz, self.fzz)]
        n = shapes[0][0] if len(shapes[0]) == 2 else 0
        if n == 0 or shapes != [(n, n)] * 3:
            raise ValueError(f"fxx, fxz and fzz must be n x n blocks, n >= 1; got shapes {shapes}")
        sv = _lapack.svdvals(self.fxz)
        if sv[-1] <= 1e-10 * max(sv[0], 1e-300):
            ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
            raise SingularSystem(
                f"mixed block of the coherent exponent is singular (margin {ratio:.3e})"
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
        sv = _lapack.svdvals(self.fxz)
        return float(abs(_lapack.det(self.fxz)) / max(sv[0], 1e-300) ** self.n)


def bergman_exponent(problem: ToeplitzProblem) -> BergmanForm:
    """The coherent-state exponent of the problem, in its coordinates."""
    problem.require_admissible()
    _require_hermitian_weight(problem.weight, "the coherent-state exponent")
    return _exponent_to_file(
        problem, normal_exponent(problem.normal.q, problem.admissibility.mixed_singular_values))


def normal_exponent(q: ComplexQuadraticForm, a11_sv=None) -> BergmanForm:
    """Solve the critical system on the weight |x|^2/4 and substitute back.

    ``a11_sv`` are the singular values of I/2 - Qxbx, descending, when the
    caller has them: the normal form's admissibility check takes them.

    The right-hand side [[2H, 0], [0, 2H^T]] is I/2 there, so the inverse
    that the Schur margin takes is also the solution.  At the critical
    point, 2f = Hx.theta + H^T z.y, and the derivative identities
    f'_x = H^T theta(x,z), f'_z = H y(x,z) give a second, independent route
    to the mixed block; their difference is recorded as ``route_residual``.
    """
    n = q.n
    h = _model_weight(n).h
    inv, margins = _checked_inverse(_system_matrix(h, q), a11_sv)
    # fxz = inv[n:, n:] / 8 exactly: BergmanForm's margin is the b22 margin
    if margins["b22"] <= 1e-10:
        raise SingularSystem(
            f"mixed block of the coherent exponent is singular (margin {margins['b22']:.3e})"
        )
    sol = 0.5 * inv  # (y; theta) as functions of (x, z)
    yx, yz = sol[:n, :n], sol[:n, n:]
    tx, tz = sol[n:, :n], sol[n:, n:]

    fxx = h.T @ tx
    fzz = h @ yz
    fxz = h.T @ tz
    fxz_alt = (h @ yx).T
    scale = max(1.0, float(abs(fxz).max()))
    residual = float(abs(fxz - fxz_alt).max() / scale)
    fxx = (fxx + fxx.T) / 2.0
    fzz = (fzz + fzz.T) / 2.0
    return _record(BergmanForm, fxx=fxx, fxz=fxz, fzz=fzz, route_residual=residual)


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
    eigs = _lapack.eigvalsh(mq)
    scale = float(np.max(np.abs(eigs)))
    if eigs[-1] >= -tol * scale:
        return math.inf

    # linear part 4 Re(x.fxz wbar) = lin . t
    lin = 4.0 * interleave(np.conj(f.fxz @ wbar))
    const = 2.0 * (wbar @ f.fzz @ wbar).real
    peak = const - 0.25 * lin @ _lapack.solve(mq, lin[:, None])[:, 0]
    return float(peak - 2.0 * weight.value(w))


def _growth_gap_matrix(f: BergmanForm, weight: Weight) -> np.ndarray:
    """Phi(x) + Phi(w) - 2 Re f(x, conj(w)) as a real symmetric matrix in
    the interleaved coordinates of the stacked variable (x, w)."""
    n = f.n
    h, p = weight.h, weight.p
    a, b, c = (np.zeros((2 * n, 2 * n), dtype=complex) for _ in range(3))
    a[:n, :n], a[n:, n:] = 2.0 * (p - f.fxx), 2.0 * p
    b[:n, :n], b[n:, :n], b[n:, n:] = h, -2.0 * f.fxz.T, h
    c[n:, n:] = -2.0 * f.fzz
    return realify(a, b, c)


def growth_subverdict(f: BergmanForm, weight: Weight, tol=None) -> SubVerdict:
    """Three-way verdict from the growth criterion's margin.

    2 Re f(x, conj(w)) <= Phi(x) + Phi(w) for all (x, w) is boundedness
    (the verdict is not UNBOUNDED); strict inequality away from the origin
    is compactness (COMPACT).
    """
    _require_hermitian_weight(weight, "the growth criterion")
    label, margin, scale = classify_real_form(_growth_gap_matrix(f, weight), tol)
    return SubVerdict("bergman", DEFINITENESS_VERDICT[label], margin, scale)
