"""Complex symplectic linear algebra on C^{2n} = C^n_x x C^n_xi.

The symplectic product is sigma(rho, rho') = xi.x' - xi'.x.  A weight
determines a totally real graph {(x, (2/i) dPhi/dx(x))} that plays the
role of the real phase space; the unique antilinear involution fixing
that graph turns canonical transformations into real quadratic forms
whose sign decides boundedness and compactness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import ConstructionResidual, DegeneratePhase, NumericalFailure
from .forms import Weight, _identity, _model_weight, classify_eigenvalues, interleave, realify

__all__ = [
    "PhasePoint",
    "LinearCanonicalMap",
    "AntilinearInvolution",
    "PositivityCertificate",
    "QuadraticPhase",
    "symplectic_form_matrix",
    "symplectic_product",
    "graph_point",
    "involution_for_weight",
    "canonical_from_phase",
    "normal_involution",
    "positivity_certificate",
]

_CONSTRUCTION_TOL = 1e-8


@dataclass
class PhasePoint:
    """A point (x, xi) of complex phase space."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=complex))
        self.xi = np.atleast_1d(np.asarray(self.xi, dtype=complex))
        if self.x.shape != self.xi.shape:
            raise ValueError("x and xi must have the same length")

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def vec(self) -> np.ndarray:
        return np.concatenate([self.x, self.xi])

    @classmethod
    def from_vec(cls, v) -> "PhasePoint":
        v = np.asarray(v, dtype=complex)
        n = v.size // 2
        return cls(v[:n], v[n:])


@functools.cache
def symplectic_form_matrix(n: int) -> np.ndarray:
    """Matrix J with sigma(rho, rho') = rho^T J rho' (one read-only array per n)."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    j.flags.writeable = False
    return j


def symplectic_product(rho: PhasePoint, rho2: PhasePoint) -> complex:
    """sigma(rho, rho') = xi.x' - xi'.x."""
    if rho.n != rho2.n:
        raise ValueError("dimension mismatch")
    return complex(rho.xi @ rho2.x - rho2.xi @ rho.x)


def graph_point(weight: Weight, x) -> PhasePoint:
    """The point of the weight's phase-space graph over x:
    (x, (2/i)(conj(H) xbar + P x))."""
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    return PhasePoint(x, -2j * weight.grad_x(x))


@dataclass
class LinearCanonicalMap:
    """A 2n x 2n complex matrix K with K^T J K = J."""

    k: np.ndarray

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=complex)
        res = self.symplectic_residual()
        if res > _CONSTRUCTION_TOL:
            raise ConstructionResidual(f"matrix is not symplectic (residual {res:.3e})")

    @property
    def n(self) -> int:
        return self.k.shape[0] // 2

    def symplectic_residual(self) -> float:
        j = symplectic_form_matrix(self.n)
        return float(abs(self.k.T @ j @ self.k - j).max() / max(1.0, abs(self.k).max() ** 2))

    def apply(self, rho):
        if isinstance(rho, PhasePoint):
            return PhasePoint.from_vec(self.k @ rho.vec)
        return self.k @ np.asarray(rho, dtype=complex)


@dataclass
class AntilinearInvolution:
    """rho -> M conj(rho) with M conj(M) = I."""

    m: np.ndarray

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=complex)
        res = self.involution_residual()
        if res > _CONSTRUCTION_TOL:
            raise ConstructionResidual(
                f"matrix does not define an involution (residual {res:.3e})"
            )

    @property
    def n(self) -> int:
        return self.m.shape[0] // 2

    def involution_residual(self) -> float:
        eye = np.eye(self.m.shape[0])
        return float(np.max(np.abs(self.m @ np.conj(self.m) - eye)))

    @functools.cached_property
    def jm(self) -> np.ndarray:
        """J M, the map-independent term of the positivity certificate."""
        jm = symplectic_form_matrix(self.n) @ self.m
        jm.flags.writeable = False
        return jm

    def apply(self, rho):
        if isinstance(rho, PhasePoint):
            return PhasePoint.from_vec(self.m @ np.conj(rho.vec))
        return self.m @ np.conj(np.asarray(rho, dtype=complex))


def involution_for_weight(weight: Weight) -> AntilinearInvolution:
    """The unique antilinear involution fixing the weight's graph pointwise.

    The graph is totally real, so its points over the basis vectors e_j
    and i e_j form a complex basis of C^{2n}; solving M conj(b_k) = b_k on
    that basis determines M, and M conj(M) = I holds by construction.
    """
    n = weight.n
    cols = []
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        cols.append(graph_point(weight, e).vec)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1j
        cols.append(graph_point(weight, e).vec)
    b = np.array(cols).T
    m = b @ np.linalg.inv(np.conj(b))
    return AntilinearInvolution(m)


def _involution_closed_hermitian(h: np.ndarray) -> AntilinearInvolution:
    # (y, eta) -> (H^{-1} conj(eta) / 2i, (2/i) conj(H) conj(y))
    n = h.shape[0]
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[:n, n:], m[n:, :n] = _lapack.inv(h) / 2j, -2j * np.conj(h)
    return AntilinearInvolution(m)


@functools.cache
def normal_involution(n: int) -> AntilinearInvolution:
    """The involution of the weight |x|^2/4, exact in binary: one read-only
    instance per dimension, its residual checked once."""
    iota = _involution_closed_hermitian(_model_weight(n).h)
    iota.m.flags.writeable = False
    return iota


@dataclass
class QuadraticPhase:
    """A holomorphic quadratic phase F(x, y, theta) on C^{3n}, stored as its
    symmetric Hessian with variables ordered (x, y, theta); theta is the
    fiber variable eliminated by the stationarity condition."""

    n: int
    hess: np.ndarray

    def __post_init__(self):
        self.hess = np.asarray(self.hess, dtype=complex)
        m = 3 * self.n
        if self.hess.shape != (m, m):
            raise ValueError("Hessian must be 3n x 3n")
        scale = np.max(np.abs(self.hess)) + 1.0
        if np.max(np.abs(self.hess - self.hess.T)) > 1e-12 * scale:
            raise ValueError("phase Hessian must be symmetric")

    def block(self, a: str, b: str) -> np.ndarray:
        idx = {"x": 0, "y": 1, "t": 2}
        n = self.n
        ia, ib = idx[a], idx[b]
        return self.hess[ia * n:(ia + 1) * n, ib * n:(ib + 1) * n]

    def value(self, x, y, theta) -> complex:
        v = np.concatenate([
            np.atleast_1d(np.asarray(x, dtype=complex)),
            np.atleast_1d(np.asarray(y, dtype=complex)),
            np.atleast_1d(np.asarray(theta, dtype=complex)),
        ])
        return complex(0.5 * v @ self.hess @ v)


def canonical_from_phase(phase: QuadraticPhase) -> LinearCanonicalMap:
    """Canonical transformation (y, -F'_y) -> (x, F'_x) on F'_theta = 0.

    Given (y, eta), the stationarity and momentum equations form a 2n x 2n
    linear system for (x, theta); singularity of that system means the
    phase is degenerate.
    """
    n, hess = phase.n, phase.hess
    # the rows and columns of the x, y and theta blocks
    x, y, t = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    a = np.empty((2 * n, 2 * n), dtype=complex)
    a[:n, :n], a[:n, n:], a[n:, :n], a[n:, n:] = hess[t, x], hess[t, t], hess[y, x], hess[y, t]
    sv = _lapack.svdvals(a)
    if sv[-1] <= 1e-12 * sv[0]:
        ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
        raise DegeneratePhase(
            f"critical system of the phase is singular (sigma_min/sigma_max = {ratio:.3e})"
        )
    rhs = np.zeros_like(a)
    rhs[:n, :n], rhs[n:, :n], rhs[n:, n:] = -hess[t, y], -hess[y, y], -_identity(n)
    sol = _lapack.solve(a, rhs)          # rows: x then theta, columns: (y, eta)
    x_of = sol[:n]
    t_of = sol[n:]
    xi_of = (hess[x, x] @ x_of + hess[x, t] @ t_of
             + np.concatenate((hess[x, y], np.zeros((n, n))), axis=1))
    return LinearCanonicalMap(np.concatenate((x_of, xi_of)))


@dataclass
class PositivityCertificate:
    """The real quadratic form rho -> (1/i)(sigma(K rho, iota K rho) -
    sigma(rho, iota rho)) on R^{4n}, with its eigenvalue classification.

    ``classification`` is "definite", "semidefinite" or "indefinite";
    ``margin`` is the smallest eigenvalue.  Nonnegativity of the form is
    exactly boundedness of the operator attached to K, definiteness is
    compactness.
    """

    pmat: np.ndarray
    eigenvalues: np.ndarray
    classification: str
    margin: float
    scale: float
    hermitian_residual: float = 0.0

    @property
    def n(self) -> int:
        return self.pmat.shape[0] // 4

    def value(self, rho) -> float:
        t = interleave(rho.vec if isinstance(rho, PhasePoint) else rho)
        return float(t @ self.pmat @ t)


def positivity_certificate(
    kmap: LinearCanonicalMap, iota: AntilinearInvolution, tol=None
) -> PositivityCertificate:
    """Certificate of positivity of a canonical transformation relative to
    the graph fixed by ``iota``."""
    if kmap.n != iota.n:
        raise ValueError("dimension mismatch between map and involution")
    j = symplectic_form_matrix(kmap.n)
    w = (kmap.k.T @ j @ iota.m @ kmap.k.conj() - iota.jm) / 1j
    scale_w = max(1.0, float(abs(w).max()))
    herm_res = float(abs(w - w.conj().T).max() / scale_w)
    if herm_res > 1e-10:
        raise NumericalFailure(
            f"certificate form has imaginary residue {herm_res:.3e}; inputs are inconsistent"
        )
    w = (w + w.conj().T) / 2.0
    # rho^T W conj(rho) = conj(rho).W^T rho
    zero = np.zeros_like(w)
    pmat = realify(zero, w.T, zero)
    eigs = _lapack.eigvalsh(pmat)
    label, margin, scale = classify_eigenvalues(eigs, tol)
    return PositivityCertificate(pmat, eigs, label, margin, scale, herm_res)
