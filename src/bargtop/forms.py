"""Complex quadratic forms on C^n, plurisubharmonic weights, and their
polarizations on C^{2n}.

Conventions (fixed once, used everywhere):

* A complex quadratic form is stored as three matrix blocks,

      q(x) = (1/2) x.Qxx x + xbar.Qxbx x + (1/2) xbar.Qxbxb xbar,

  with Qxx and Qxbxb symmetric.  The stored blocks then equal the
  Hessian blocks of q in (x, xbar).

* The polarization of q, the substitution xbar -> theta, is the
  holomorphic form q(y, theta) on C^{2n} with the same three blocks;
  ``ComplexQuadraticForm.polar_value`` evaluates it, and ``value(x)`` is
  its restriction to theta = conj(x).

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

from . import _lapack
from .errors import NumericalFailure

__all__ = [
    "ComplexQuadraticForm",
    "Weight",
    "Admissibility",
    "check_admissible",
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
    return classify_eigenvalues(_lapack.eigvalsh(np.asarray(mat, dtype=float)), tol)


def classify_eigenvalues(eigs, tol=None):
    """:func:`classify_real_form` of a matrix with ascending eigenvalues ``eigs``."""
    if tol is None:
        tol = classification_tolerance()
    margin, scale = _ends(eigs)
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


def _ends(eigs) -> tuple[float, float]:
    """(smallest, largest magnitude) of ascending eigenvalues, (0, 0) for none."""
    if not eigs.size:
        return 0.0, 0.0
    low = float(eigs[0])
    return low, max(abs(low), abs(float(eigs[-1])))


def _finite(mat, name):
    mat = np.asarray(mat, dtype=complex)
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} has non-finite entries")
    return mat


def _check_symmetric(mat, name, hermitian=False):
    # halves first: a sum, difference or modulus of entries near the float
    # maximum overflows, that of their halves does not
    mat = _finite(mat, name)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    half = mat / 2.0
    half_t = (half.conj() if hermitian else half).T
    if abs(half - half_t).max() > _SYM_TOL * (abs(half).max() + 0.5):
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

    def polar_value(self, y, theta) -> complex:
        """(1/2) y.qxx y + theta.qxbx y + (1/2) theta.qxbxb theta."""
        y = np.asarray(y, dtype=complex)
        theta = np.asarray(theta, dtype=complex)
        return complex(
            0.5 * y @ self.qxx @ y + theta @ self.qxbx @ y + 0.5 * theta @ self.qxbxb @ theta
        )

    def value(self, x) -> complex:
        return self.polar_value(x, np.conj(x))

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
        eigs = _lapack.eigvalsh(self.h)
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
        return not self.p.any() or float(abs(self.p).max()) <= 1e-14 * float(abs(self.h).max())

    def value(self, x) -> float:
        x = np.asarray(x, dtype=complex)
        return float((np.conj(x) @ self.h @ x).real + (x @ self.p @ x).real)

    def grad_x(self, x) -> np.ndarray:
        """Holomorphic gradient dPhi/dx = conj(H) xbar + P x."""
        x = np.asarray(x, dtype=complex)
        return np.conj(self.h) @ np.conj(x) + self.p @ x

    def as_form(self) -> ComplexQuadraticForm:
        """The weight rewritten as a complex quadratic form in (x, xbar)."""
        return ComplexQuadraticForm(self.p.copy(), self.h.copy(), np.conj(self.p))


@functools.cache
def _identity(n: int) -> np.ndarray:
    """np.eye(n), one read-only array per dimension."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


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
class Admissibility:
    """Outcome of the two admissibility checks for a (weight, form) pair.

    ``mixed_singular_values`` are those of 2H - Qxbx, descending, when the
    check got that far; the coherent route reads its a11 margin off them.
    """

    ok: bool
    herm_margin: float
    det_margin: float
    failures: list = field(default_factory=list)
    mixed_singular_values: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __bool__(self) -> bool:
        return self.ok


def check_admissible(weight: Weight, q: ComplexQuadraticForm, tol=None) -> Admissibility:
    """Check that Re q is strictly dominated by the Hermitian part of the
    weight and that the mixed Hessian of (2 Phi - q) is invertible.

    ``herm_margin`` is the smallest eigenvalue of the real form of
    (Phi_herm - Re q); ``det_margin`` is |det(2H - Qxbx)| normalized by the
    matrix scale.  Both must exceed the classification tolerance.  Entries
    near the float maximum that overflow the realified gap, the determinant
    or its scale raise NumericalFailure: no margin is read off an infinity.
    """
    if tol is None:
        tol = classification_tolerance()
    if weight.n != q.n:
        raise ValueError("dimension mismatch between weight and form")
    with np.errstate(over="ignore", invalid="ignore"):
        gap = realify(-q.qxx, weight.h - q.qxbx, -q.qxbxb)
        d = 2.0 * weight.h - q.qxbx
        det = abs(_lapack.det(d))
    if not (np.isfinite(gap).all() and math.isfinite(det)):
        raise NumericalFailure("admissibility check overflows double precision")
    herm_margin, scale = _ends(_lapack.eigvalsh(gap))
    if not scale > 0:
        scale = 1.0

    # the scale is the largest singular value, as np.linalg.norm(d, 2) takes
    # it; the values are kept for the coherent route's a11 margin
    sv = _lapack.svdvals(d)
    dscale = float(sv[0])
    try:
        det_margin = float(det / max(dscale, 1e-300) ** weight.n)
    except OverflowError:
        raise NumericalFailure("admissibility check overflows double precision") from None

    failures = []
    if herm_margin <= tol * scale:
        failures.append(
            f"Re q - Phi_herm has a nonnegative direction (margin {herm_margin:.3e})"
        )
    if det_margin <= tol:
        failures.append(
            f"mixed Hessian of 2*Phi - q is numerically singular (margin {det_margin:.3e})"
        )
    return Admissibility(not failures, herm_margin, det_margin, failures, sv)

