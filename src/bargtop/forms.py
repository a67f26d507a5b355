"""Complex quadratic forms on C^n, plurisubharmonic weights, and their
polarizations on C^{2n}.

Conventions (fixed once, used everywhere):

* A complex quadratic form is stored as three matrix blocks,

      q(x) = (1/2) x.Qxx x + xbar.Qxbx x + (1/2) xbar.Qxbxb xbar,

  with Qxx and Qxbxb symmetric.  The stored blocks then equal the
  Hessian blocks of q in (x, xbar).

* A weight is Phi(x) = xbar.H x + Re(x.P x) with H Hermitian positive
  definite (the Levi form) and P complex symmetric (the pluriharmonic
  coefficient).

* Realification C^m -> R^{2m} interleaves (Re z_1, Im z_1, Re z_2, ...),
  so every derived real matrix is reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
import os
import reprlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ComplexQuadraticForm",
    "Weight",
    "PolarizedForm",
    "Admissibility",
    "polarize",
    "check_admissible",
    "check_polar_nondegenerate",
    "classification_tolerance",
    "parse_tolerance",
    "interleave",
    "uninterleave",
    "quadratic_matrix",
    "form_matrix",
    "realify",
    "real_part_matrix",
    "classify_real_form",
    "classify_eigenvalues",
]

_SYM_TOL = 1e-12
# degeneracy rejection at construction is not subject to the TOEPLITZ_TOL
# override; a wide classification band must not invalidate every weight
_DEGENERACY_TOL = 1e-9


def parse_tolerance(value, where: str) -> float:
    """A tolerance read from outside the program, as a float.

    Numbers and numeric strings are accepted; anything that is not a
    finite nonnegative number raises ValueError naming ``where``.
    """
    try:
        tol = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        # a YAML value may alias one list from many places; a full repr
        # would visit every path through it, so bound the traversal
        short = reprlib.Repr()
        short.maxlevel, short.maxlist = 2, 3
        raise ValueError(f"{where}: must be a finite nonnegative number, got {short.repr(value)}")
    return tol


def classification_tolerance() -> float:
    """Relative eigenvalue tolerance for definiteness decisions.

    Defaults to 1e-9; the environment variable TOEPLITZ_TOL overrides it.
    A value that is not a finite nonnegative number raises ValueError.
    """
    return parse_tolerance(os.environ.get("TOEPLITZ_TOL", "1e-9"), "TOEPLITZ_TOL")


def interleave(z):
    """C^m -> R^{2m}, (Re z_1, Im z_1, Re z_2, Im z_2, ...)."""
    z = np.asarray(z, dtype=complex)
    t = np.empty(2 * z.size)
    t[0::2] = z.real
    t[1::2] = z.imag
    return t


def uninterleave(t):
    """Inverse of :func:`interleave`."""
    t = np.asarray(t, dtype=float)
    return t[0::2] + 1j * t[1::2]


def quadratic_matrix(fn, m):
    """Matrix of a homogeneous quadratic function on R^m.

    ``fn`` maps a length-m real vector to a scalar (real or complex) and
    must be a quadratic form; the matrix is recovered from evaluations on
    basis vectors and pair sums, so no block algebra can go wrong.  It
    costs O(m^2) Python evaluations: the tests use it as the reference for
    :func:`form_matrix` and :func:`realify`, which the package calls instead.
    """
    eye = np.eye(m)
    diag = np.array([fn(eye[a]) for a in range(m)])
    out = np.zeros((m, m), dtype=np.result_type(diag.dtype, float))
    for a in range(m):
        out[a, a] = diag[a]
        for b in range(a + 1, m):
            cross = (fn(eye[a] + eye[b]) - diag[a] - diag[b]) / 2.0
            out[a, b] = cross
            out[b, a] = cross
    if np.iscomplexobj(out) and np.max(np.abs(out.imag)) == 0.0:
        out = out.real
    return out


# x_j = u.(t_{2j}, t_{2j+1}) with u = (1, i), so x = E t for E = I (x) u, and
# E^T A E, conj(E)^T B E, conj(E)^T C conj(E) are the Kronecker products of
# A, B, C with the outer products u u, conj(u) u, conj(u) conj(u); the
# trailing axes below lay those out as (j, r, k, s) -> (2j + r, 2k + s)
_U = np.array([1.0, 1j])
_UU = np.outer(_U, _U)[:, None, :]
_UBU = np.outer(_U.conj(), _U)[:, None, :]
_UBUB = np.outer(_U.conj(), _U.conj())[:, None, :]


def form_matrix(a, b, c) -> np.ndarray:
    """Complex symmetric matrix of t -> (1/2) x.A x + xbar.B x + (1/2) xbar.C xbar
    with x = uninterleave(t).

    With x = E t, E = [I, iI] column-interleaved, the matrix is
    sym(E^T A E / 2 + conj(E)^T B E + conj(E)^T C conj(E) / 2); the
    blocks need not be symmetric.
    """
    a, b, c = (np.asarray(blk)[:, None, :, None] for blk in (a, b, c))
    m2 = 2 * a.shape[0]
    # halves first, as in _check_symmetric: a sum of entries near the float
    # maximum overflows, that of their halves does not; scaling by 1/2 is
    # exact, so every matrix keeps its bits
    half = (0.25 * a * _UU + 0.5 * b * _UBU + 0.25 * c * _UBUB).reshape(m2, m2)
    return half + half.T


def realify(a, b, c) -> np.ndarray:
    """Real symmetric matrix of t -> Re((1/2) x.A x + xbar.B x + (1/2) xbar.C xbar)
    with x = uninterleave(t): the real part of :func:`form_matrix`."""
    return np.ascontiguousarray(form_matrix(a, b, c).real)


def classify_real_form(mat, tol=None):
    """Eigenvalue classification of a real symmetric matrix.

    Returns ``(label, margin, scale)`` where margin is the smallest
    eigenvalue, scale the largest magnitude eigenvalue, and label one of
    ``"definite"``, ``"semidefinite"``, ``"indefinite"``.  Eigenvalues
    within ``tol*scale`` of zero count as zero.
    """
    return classify_eigenvalues(np.linalg.eigvalsh(np.asarray(mat, dtype=float)), tol)


def classify_eigenvalues(eigs, tol=None):
    """:func:`classify_real_form` of a matrix with ascending eigenvalues ``eigs``."""
    if tol is None:
        tol = classification_tolerance()
    scale = float(np.abs(eigs).max()) if eigs.size else 0.0
    margin = float(eigs[0]) if eigs.size else 0.0
    band = tol * scale
    if scale <= 1e-13:
        # the whole matrix is rounding noise; it represents the zero form
        label = "semidefinite"
    elif margin > band:
        label = "definite"
    elif margin < -band:
        label = "indefinite"
    else:
        label = "semidefinite"
    return label, margin, scale


def _finite(mat, name):
    mat = np.asarray(mat, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} has non-finite entries")
    return mat


def _check_symmetric(mat, name, hermitian=False):
    # halves first: a sum, difference or modulus of entries near the float
    # maximum overflows, that of their halves does not
    mat = _finite(mat, name)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    half, half_t = mat / 2.0, (mat.conj() if hermitian else mat).T / 2.0
    if np.max(np.abs(half - half_t)) > _SYM_TOL * (np.max(np.abs(half)) + 0.5):
        raise ValueError(f"{name} must be {'Hermitian' if hermitian else 'symmetric'}")
    return half + half_t


@dataclass
class ComplexQuadraticForm:
    """q(x) = (1/2) x.qxx x + xbar.qxbx x + (1/2) xbar.qxbxb xbar."""

    qxx: np.ndarray
    qxbx: np.ndarray
    qxbxb: np.ndarray

    def __post_init__(self):
        self.qxx = _check_symmetric(self.qxx, "qxx")
        self.qxbxb = _check_symmetric(self.qxbxb, "qxbxb")
        self.qxbx = _finite(self.qxbx, "qxbx")
        n = self.qxx.shape[0]
        if self.qxbx.shape != (n, n) or self.qxbxb.shape != (n, n):
            raise ValueError("block dimensions disagree")

    @property
    def n(self) -> int:
        return self.qxx.shape[0]

    @classmethod
    def zero(cls, n: int) -> "ComplexQuadraticForm":
        z = np.zeros((n, n), dtype=complex)
        return cls(z.copy(), z.copy(), z.copy())

    def value(self, x) -> complex:
        x = np.asarray(x, dtype=complex)
        xb = np.conj(x)
        return complex(
            0.5 * x @ self.qxx @ x + xb @ self.qxbx @ x + 0.5 * xb @ self.qxbxb @ xb
        )

    def is_real_valued(self, tol: float = 1e-12) -> bool:
        """True iff Im q(x) = 0 for all x: qxbxb = conj(qxx), qxbx Hermitian."""
        scale = max(
            np.max(np.abs(self.qxx)), np.max(np.abs(self.qxbx)),
            np.max(np.abs(self.qxbxb)), 1.0,
        )
        ok_outer = np.max(np.abs(self.qxbxb - np.conj(self.qxx))) <= tol * scale
        ok_mixed = np.max(np.abs(self.qxbx - self.qxbx.conj().T)) <= tol * scale
        return bool(ok_outer and ok_mixed)

    def __add__(self, other):
        return ComplexQuadraticForm(
            self.qxx + other.qxx, self.qxbx + other.qxbx, self.qxbxb + other.qxbxb
        )

    def __sub__(self, other):
        return ComplexQuadraticForm(
            self.qxx - other.qxx, self.qxbx - other.qxbx, self.qxbxb - other.qxbxb
        )

    def __rmul__(self, c):
        return ComplexQuadraticForm(c * self.qxx, c * self.qxbx, c * self.qxbxb)


def real_part_matrix(form: ComplexQuadraticForm) -> np.ndarray:
    """Re(form) as a real symmetric 2n x 2n matrix in interleaved coordinates."""
    return realify(form.qxx, form.qxbx, form.qxbxb)


@dataclass
class Weight:
    """Strictly plurisubharmonic quadratic weight Phi(x) = xbar.H x + Re(x.P x)."""

    h: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.h = _check_symmetric(self.h, "h", hermitian=True)
        n = self.h.shape[0]
        eigs = np.linalg.eigvalsh(self.h)
        if eigs[0] <= _DEGENERACY_TOL * eigs[-1]:
            raise ValueError(
                f"weight is not strictly plurisubharmonic: min Levi eigenvalue {eigs[0]:.3e}"
            )
        self.p = _check_symmetric(self.p, "p")
        if self.p.shape != (n, n):
            raise ValueError("p must match the dimension of h")

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @classmethod
    def model(cls, n: int = 1) -> "Weight":
        """The radial weight |x|^2 / 4."""
        return cls(np.eye(n) / 4.0, np.zeros((n, n)))

    @property
    def is_hermitian(self) -> bool:
        """True when the pluriharmonic part vanishes relative to the Levi
        form; the test is scale-free, as H is never zero."""
        return float(np.max(np.abs(self.p))) <= 1e-14 * float(np.max(np.abs(self.h)))

    def value(self, x) -> float:
        x = np.asarray(x, dtype=complex)
        return float((np.conj(x) @ self.h @ x).real + (x @ self.p @ x).real)

    def herm_value(self, x) -> float:
        """The Hermitian part, (Phi(x) + Phi(ix)) / 2 = xbar.H x."""
        x = np.asarray(x, dtype=complex)
        return float((np.conj(x) @ self.h @ x).real)

    def grad_x(self, x) -> np.ndarray:
        """Holomorphic gradient dPhi/dx = conj(H) xbar + P x."""
        x = np.asarray(x, dtype=complex)
        return np.conj(self.h) @ np.conj(x) + self.p @ x

    def as_form(self) -> ComplexQuadraticForm:
        """The weight rewritten as a complex quadratic form in (x, xbar)."""
        return ComplexQuadraticForm(self.p.copy(), self.h.copy(), np.conj(self.p))


@functools.cache
def _model_weight(n: int) -> Weight:
    # one |x|^2/4 per dimension, shared by every normal form, so read-only
    weight = Weight.model(n)
    weight.h.flags.writeable = weight.p.flags.writeable = False
    return weight


def _record(cls, **fields):
    """An instance of the dataclass ``cls`` holding ``fields``, without its
    ``__post_init__`` checks: for values that hold them by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass
class PolarizedForm:
    """Holomorphic quadratic form on C^{2n} obtained by the substitution
    xbar -> theta; restriction to theta = conj(y) recovers the source form.

    G(y, theta) = (1/2) y.gyy y + theta.gty y + (1/2) theta.gtt theta
    """

    gyy: np.ndarray
    gty: np.ndarray
    gtt: np.ndarray

    def __post_init__(self):
        self.gyy = _check_symmetric(self.gyy, "gyy")
        self.gtt = _check_symmetric(self.gtt, "gtt")
        self.gty = np.asarray(self.gty, dtype=complex)

    @property
    def n(self) -> int:
        return self.gyy.shape[0]

    def value(self, y, theta) -> complex:
        y = np.asarray(y, dtype=complex)
        theta = np.asarray(theta, dtype=complex)
        return complex(
            0.5 * y @ self.gyy @ y + theta @ self.gty @ y + 0.5 * theta @ self.gtt @ theta
        )

    def hessian(self) -> np.ndarray:
        """Full 2n x 2n Hessian in (y, theta)."""
        return np.block([[self.gyy, self.gty.T], [self.gty, self.gtt]])


def polarize(form) -> PolarizedForm:
    """Polarization of a quadratic form (or weight) on C^n.

    The unique holomorphic quadratic form on C^{2n} that equals the input
    on the anti-diagonal theta = conj(y).
    """
    if isinstance(form, Weight):
        form = form.as_form()
    return PolarizedForm(form.qxx.copy(), form.qxbx.copy(), form.qxbxb.copy())


@dataclass
class Admissibility:
    """Outcome of the two admissibility checks for a (weight, form) pair."""

    ok: bool
    herm_margin: float
    det_margin: float
    failures: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_admissible(weight: Weight, q: ComplexQuadraticForm, tol=None) -> Admissibility:
    """Check that Re q is strictly dominated by the Hermitian part of the
    weight and that the mixed Hessian of (2 Phi - q) is invertible.

    ``herm_margin`` is the smallest eigenvalue of the real form of
    (Phi_herm - Re q); ``det_margin`` is |det(2H - Qxbx)| normalized by the
    matrix scale.  Both must exceed the classification tolerance.
    """
    if tol is None:
        tol = classification_tolerance()
    if weight.n != q.n:
        raise ValueError("dimension mismatch between weight and form")
    gap = realify(-q.qxx, weight.h - q.qxbx, -q.qxbxb)
    eigs = np.linalg.eigvalsh(gap)
    scale = float(np.max(np.abs(eigs))) if np.max(np.abs(eigs)) > 0 else 1.0
    herm_margin = float(eigs[0])

    d = 2.0 * weight.h - q.qxbx
    dscale = float(np.linalg.norm(d, 2))
    det_margin = float(abs(np.linalg.det(d)) / max(dscale, 1e-300) ** weight.n)

    failures = []
    if herm_margin <= tol * scale:
        failures.append(
            f"Re q - Phi_herm has a nonnegative direction (margin {herm_margin:.3e})"
        )
    if det_margin <= tol:
        failures.append(
            f"mixed Hessian of 2*Phi - q is numerically singular (margin {det_margin:.3e})"
        )
    return Admissibility(not failures, herm_margin, det_margin, failures)


def check_polar_nondegenerate(g: ComplexQuadraticForm, tol: float = 1e-12) -> bool:
    """Non-degeneracy of the polarization of a form with Re g < 0.

    Raises ValueError when the precondition Re g < 0 fails; a False return
    on a valid input signals a numerical failure, not mathematics.
    """
    label, margin, _scale = classify_real_form(-real_part_matrix(g))
    if label != "definite":
        raise ValueError(
            f"Re g is not negative definite (min eigenvalue of Re g = {-margin:.6e})"
        )
    hess = polarize(g).hessian()
    sv = np.linalg.svd(hess, compute_uv=False)
    return bool(sv[-1] > tol * sv[0])
