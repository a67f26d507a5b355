"""Brute-force numerical ground truth.

Galerkin sections of the operator in the orthonormalized monomial basis
(n <= 2, diagonal Levi form), and at every n the Weyl heat flow as a
direct Gaussian convolution and coherent-state norms.  None of it trusts
the closed-form pipeline; agreement is the cross-check.

None of it needs quadrature nodes.  Each integral is a polynomial, or
nothing, against e^{-t.Gt + l.t} with G complex symmetric and Re G > 0,
and completing the square gives pi^{m/2} det(G)^{-1/2} e^{l.G^{-1}l/4}
(``_GaussianIntegral``, with the range checks of G).  A Galerkin entry
is that prefactor times a Gaussian moment in x and conj(x), and Stein's
identity gives every moment exactly from its parent and the parent's n
lower neighbours, normalized by the basis norms as it goes.  One byte
budget, ``_TABLE_MAX_BYTES``, bounds a section and its basis, and a
section over it is refused before its basis is listed.  The Weyl
convolution is the ratio of two completed squares, the heat kernel's and
its own; a coherent state's image is a Gaussian after one square in x,
and its norm one more in z.  Several points of one problem
(``weyl_convolutions``, ``coherent_norms``) share every matrix.

Near the float maximum or minimum a problem can be admissible while G, a
pseudo-covariance or a value leaves the double range; each is checked
where it is first formed and raises ``NumericalFailure``, with no warning
on the way.  Determinants are taken only as logarithms.  Every
factorization, SVD and eigensolve goes through ``bargtop._lapack``, as the
classification's do, so a failed one raises ``NumericalFailure`` too.

The oracle imports no SciPy: importing the package and every oracle
experiment leave it unloaded.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import (
    NotAbsolutelyConvergent, NumericalFailure, OracleRefusal, QuadratureDivergence,
)
from .forms import Weight, form_matrix
from .toeplitz import ToeplitzProblem

__all__ = [
    "TruncatedOperator",
    "truncated_matrix",
    "norm_trend",
    "is_plateau",
    "DecayEstimate",
    "singular_decay",
    "weyl_convolutions",
    "coherent_norms",
]

@dataclass
class TruncatedOperator:
    """Galerkin section of the operator in the monomial basis."""

    size: int
    t: np.ndarray
    indices: list

    def spectral_norm(self) -> float:
        return float(_lapack.svdvals(self.t)[0])


# ---------------------------------------------------------------------------
# basis bookkeeping (diagonal Hermitian weights only)

def _block_order(mat: np.ndarray) -> np.ndarray:
    """A matrix in interleaved coordinates (u_1, v_1, u_2, ...) rewritten in
    the oracle's block coordinates (u_1..u_n, v_1..v_n)."""
    m = mat.shape[0]
    perm = np.r_[0:m:2, 1:m:2]
    return mat[np.ix_(perm, perm)]


#: memory budget of one oracle computation: a Galerkin section and its basis
_TABLE_MAX_BYTES = 1 << 28


def _basis_bytes(size: int) -> int:
    """Bytes of the moment recurrence's state on ``size`` monomials,
    bounded above: the index list while the basis is built, then its index
    arrays, took 168-202 bytes per monomial from 20000 to 88000 monomials
    at n = 1 and 2 (tracemalloc peaks, CPython 3.11), so 256 are counted."""
    return 256 * size


def _section_bytes(size: int) -> int:
    """Bytes of a Galerkin section of ``size``, bounded above: its complex
    table, and four times the recurrence's count for its basis, which also
    holds the Sigma^{x xbar} coefficients of a row and of a column and the
    temporaries of one row (tracemalloc peaks of 290-470 bytes per
    monomial besides the table, at n = 1 and 2 and sizes 40-1000)."""
    return 16 * size * size + 4 * _basis_bytes(size)


def _require_bytes(nbytes: int, what: str) -> None:
    if nbytes > _TABLE_MAX_BYTES:
        raise OracleRefusal(
            f"{what} needs more memory than the oracle's limit of {_TABLE_MAX_BYTES >> 20} MiB"
        )


def _require_finite(mat, what: str) -> None:
    """Fail on a matrix with an entry outside the double range.  Near the
    float maximum an admissible problem's doubled or quadrupled forms
    overflow, and no eigensolver takes an infinite entry; callers form the
    matrix with NumPy's warnings off and check it here."""
    if not np.isfinite(mat).all():
        raise NumericalFailure(f"{what} leaves the double range")


def _require_hermitian(weight: Weight) -> None:
    if not weight.is_hermitian:
        raise OracleRefusal("oracle requires a weight without pluriharmonic part")


def _basis_levi(problem: ToeplitzProblem) -> np.ndarray:
    """The Levi form's diagonal h_i, for a problem whose monomial basis the
    oracle lists: n <= 2, a Hermitian weight and a diagonal Levi form."""
    if problem.n > 2:
        raise OracleRefusal("Galerkin sections support n <= 2")
    _require_hermitian(problem.weight)
    h = problem.weight.h
    off = h - np.diag(np.diag(h))
    if np.max(np.abs(off)) > 1e-13 * np.max(np.abs(h)):
        raise OracleRefusal(
            "oracle requires a diagonal Levi form; rotate coordinates unitarily first"
        )
    return np.real(np.diag(h))


def monomial_indices(n: int, size: int):
    """First ``size`` multi-indices ordered by total degree, then lexicographic."""
    idx = []
    deg = 0
    while len(idx) < size:
        idx.extend(_degree_layer(n, deg))
        deg += 1
    return idx[:size]


def _degree_layer(n: int, deg: int):
    """The multi-indices of total degree ``deg`` in n variables, in
    lexicographic order."""
    if n == 1:
        return [(deg,)]
    return [(a,) + rest for a in range(deg + 1) for rest in _degree_layer(n - 1, deg - a)]


class _MomentRecurrence:
    """Normalized Gaussian moments over a basis of monomials.

    For a centred Gaussian vector y with pseudo-covariance C, Stein's
    identity E[y_l F(y)] = sum_i C_li E[d_i F] with F = y^p, p = alpha - e_l
    and l the last positive exponent of alpha, gives each moment from the
    parent's n lower neighbours.  On the moments normalized by the basis
    norms, m_alpha = E[y^alpha] ||1|| / ||x^alpha|| with
    ||x^alpha||^2 = prod_i pi alpha_i! / (2h_i)^{alpha_i + 1}, it reads

        m_alpha = sqrt(2h_l / alpha_l) sum_i C_li sqrt(2h_i p_i) m_{p - e_i},

    exact, with no nodes, and with entries near the size of the moments,
    not |y|^d.  For the basis of :func:`monomial_indices`, ``lower[i, j]``
    is the position of alpha_j - e_i (0 where alpha_j has no x_i) and
    ``raised[i, j]`` is sqrt(2h_i alpha_i), the normalized factor of
    d_i x^alpha; they are NumPy arrays, not lists, so that the state of a
    large basis stays within :func:`_basis_bytes`.
    """

    def __init__(self, indices, hdiag):
        n, size = len(indices[0]), len(indices)
        a = np.fromiter(itertools.chain.from_iterable(indices), np.intp, n * size).reshape(size, n).T
        below = a.sum(axis=0) - 1  # the degree of alpha - e_i
        if n == 1:
            lower = below[None]
        else:  # (a_0, a_1) of degree d sits at d (d + 1) / 2 + a_0
            first = below * (below + 1) // 2
            lower = np.stack((first + a[0] - 1, first + a[0]))
        self.lower = np.where(a > 0, lower, 0)
        self.last = n - 1 - np.argmax(a[::-1] > 0, axis=0)
        cols = np.arange(size)
        self.parent = self.lower[self.last, cols]
        sqrt_2h = np.sqrt(2.0 * np.asarray(hdiag))
        self.raised = sqrt_2h[:, None] * np.sqrt(a)
        # sqrt(2h_l / alpha_l); the constant's entry is never used
        self.step = sqrt_2h[self.last] / np.sqrt(np.maximum(a[self.last, cols], 1))

    def steps(self):
        """(j, p, l, sqrt(2h_l / alpha_l), lower, raised) for each
        alpha = alpha_j after the constant, with p the position of its
        parent and ``lower``, ``raised`` the parent's columns of those
        arrays, as Python numbers: they are converted 1024 monomials at a
        time, which keeps the per-monomial state in NumPy arrays and the
        recurrence's loop on Python scalars."""
        block, size = 1 << 10, self.parent.size
        for start in range(1, size, block):
            js = slice(start, min(start + block, size))
            ps = self.parent[js]
            yield from zip(range(js.start, js.stop), ps.tolist(), self.last[js].tolist(),
                           self.step[js].tolist(), zip(*self.lower[:, ps].tolist()),
                           zip(*self.raised[:, ps].tolist()))


# ---------------------------------------------------------------------------
# the completed square

class _GaussianIntegral:
    """log I(l) for I(l) = pi^{-m/2} int e^{-t.Gt + l.t} dt over R^m,

        log I(l) = log det(G)^{-1/2} + l.G^{-1}l / 4,

    the powers of pi cancelling in every value the oracle takes.  A G
    with an entry past the double range fails with ``NumericalFailure``,
    and one whose real part is not positive definite (not absolutely
    integrable) with ``divergence``; ``what`` names the integrand."""

    def __init__(self, g: np.ndarray, what: str, divergence=QuadratureDivergence):
        _require_finite(g, what)
        low = _lapack.eigvalsh(np.real(g))[0]
        if low <= 0.0:
            raise divergence(f"{what} is not integrable (min Re eigenvalue {low:.3e})")
        self.g = g
        self.ginv = _lapack.inv(g)
        # the principal root of each eigenvalue, all in the right half-plane
        self.log_base = -0.5 * np.sum(np.log(_lapack.eigvals(g)))

    def log(self, lin: np.ndarray) -> complex:
        return self.log_base + lin @ self.ginv @ lin / 4.0


def _realified(h: np.ndarray) -> np.ndarray:
    """Hr with conj(x).Hx = t.Hr t in block coordinates, for Hermitian H."""
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def _gaussian_exponent(problem: ToeplitzProblem) -> _GaussianIntegral:
    """The integral of e^{-t.Gt + l.t} with t.Gt = 2 Phi(x) - q(x) in block
    coordinates.  For a weight without pluriharmonic part Re G is
    positive definite exactly when the problem is admissible; a
    pluriharmonic part can make it indefinite, which is refused."""
    weight, q = problem.weight, problem.q
    # 2 Phi has blocks (2P, 2H, 2 conj(P)) in the convention of forms
    with np.errstate(all="ignore"):
        g = _block_order(form_matrix(
            2.0 * weight.p - q.qxx, 2.0 * weight.h - q.qxbx, 2.0 * np.conj(weight.p) - q.qxbxb
        ))
    return _GaussianIntegral(g, "the Gaussian weight e^{-2 Phi + q}")


@functools.cache
def _xxbar_rows(n: int) -> np.ndarray:
    """P with (x, conj(x)) = P t in block coordinates t = (u, v), x = u + iv."""
    eye = np.eye(n)
    rows = np.block([[eye, 1j * eye], [eye, -1j * eye]])
    rows.flags.writeable = False  # one array serves every caller
    return rows


def _pseudo_covariances(ginv: np.ndarray):
    """E[x x^T], E[x conj(x)^T] and E[conj(x) conj(x)^T] for the centred
    Gaussian e^{-t.Gt}, continued analytically: t has covariance G^{-1}/2,
    so z = (x, conj(x)) has Sigma = P G^{-1} P^T / 2."""
    n = ginv.shape[0] // 2
    p = _xxbar_rows(n)
    with np.errstate(all="ignore"):
        sigma = p @ ginv @ p.T / 2.0
    _require_finite(sigma, "the Gaussian's pseudo-covariance")
    return sigma[:n, :n], sigma[:n, n:], sigma[n:, n:]


# ---------------------------------------------------------------------------
# truncated operator

def truncated_matrix(problem: ToeplitzProblem, size: int) -> TruncatedOperator:
    """T[j, k] = <e^q e_j, e_k> in the weighted inner product, for the
    orthonormalized monomial basis e_j = x^alpha / ||x^alpha||.

    In block coordinates t the entry integrates x^alpha conj(x)^beta
    e^{-t.Gt}: pi^n det(G)^{-1/2} times the moment E[x^alpha conj(x)^beta]
    of the centred Gaussian z = (x, conj(x)), whose pseudo-covariance is
    Sigma = P G^{-1} P^T / 2.  Stein's identity in x_l lowers alpha to its
    parent p = alpha - e_l:

        T_{alpha, beta} = sqrt(2h_l / alpha_l) (sum_i Sigma^{xx}_li sqrt(2h_i p_i) T_{p - e_i, beta}
                                                + sum_i Sigma^{x xbar}_li sqrt(2h_i beta_i) T_{p, beta - e_i}),

    one NumPy expression over a row, times prod_i 2h_i det(G)^{-1/2}; the
    identity in conj(x)_l lowers beta the same way down a column.  Row k
    (up to the diagonal) and column k (above it) are filled in turn, each
    entry lowering the larger of its two indices: lowering the smaller
    multiplies by up to sqrt(beta_i / alpha_l), and on unbounded draws at
    n = 1 and size 80 that lost up to 5e-12 of the largest entry against a
    50-digit evaluation, where this order keeps 2e-14.  A radial q at n = 1
    has Sigma^{xx} = 0, and its section comes out exactly diagonal.  A
    section whose table and basis exceed ``_TABLE_MAX_BYTES`` is refused
    before its basis is listed.
    """
    problem.require_admissible()
    hdiag = _basis_levi(problem)
    _require_bytes(_section_bytes(size), f"a Galerkin section of size {size}")
    gauss = _gaussian_exponent(problem)
    sxx, sxxb, sxbxb = _pseudo_covariances(gauss.ginv)
    indices = monomial_indices(problem.n, size)
    rec = _MomentRecurrence(indices, hdiag)
    # Sigma^{x xbar}_li sqrt(2h_i beta_i) along a row; its transpose down a column
    along_row = sxxb[:, :, None] * rec.raised
    along_col = sxxb.T[:, :, None] * rec.raised
    t = np.zeros((size, size), dtype=complex)
    t[0, 0] = 1.0
    # column k above the diagonal, then row k up to it
    passes = ((t.T, sxbxb.tolist(), along_col, 0), (t, sxx.tolist(), along_row, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, p, l, step, below, raised in rec.steps():
            for mat, cov, mixed, diagonal in passes:
                width = k + diagonal
                acc = (mixed[l, :, :width] * mat[p][rec.lower[:, :width]]).sum(axis=0)
                for c, low, r in zip(cov[l], below, raised):
                    if r:
                        acc += c * r * mat[low, :width]
                mat[k, :width] = step * acc
        # pi^n det(G)^{-1/2} over ||1||^2 = pi^n / prod_i 2h_i
        t *= np.exp(np.sum(np.log(2.0 * hdiag)) + gauss.log_base)
        # one sum, not a mask of size^2: it is finite unless an entry is
        # infinite or not a number, or the entries are so large that their
        # sum overflows
        finite = np.isfinite(t.sum())
    if not finite:
        raise NumericalFailure(f"a Galerkin section of size {size} leaves the double range")
    return TruncatedOperator(size, t, indices)


def norm_trend(problem: ToeplitzProblem, sizes) -> list:
    """Spectral norms of nested Galerkin sections; non-decreasing, and a
    plateau is the boundedness hint (never a verdict)."""
    sizes = sorted(int(s) for s in sizes)
    top = truncated_matrix(problem, sizes[-1])
    return [float(_lapack.svdvals(top.t[:s, :s])[0]) for s in sizes]


def is_plateau(norms, rtol: float = 1e-3) -> bool:
    """Relative increase below rtol between the last two sections."""
    if len(norms) < 2:
        return False
    a, b = norms[-2], norms[-1]
    return bool(b - a <= rtol * max(a, 1e-300))


@dataclass
class DecayEstimate:
    ratio: float
    singular_values: np.ndarray


#: relative floor of the singular values that ``singular_decay`` fits: the
#: SVD of a section is accurate to about 1e-16 of its largest singular
#: value, so each value kept carries about ten digits, and the fitted ratio
#: moves by under 1e-12 when the section moves at 1e-15 (at 1e-12 the
#: values near the floor carried four, and the ratio moved by up to 6e-8)
_DECAY_FLOOR = 1e-6


def singular_decay(problem: ToeplitzProblem, size: int) -> DecayEstimate:
    """Least-squares geometric decay ratio of the singular values above
    ``_DECAY_FLOOR`` of the largest."""
    top = truncated_matrix(problem, size)
    sv = _lapack.svdvals(top.t)
    keep = sv > sv[0] * _DECAY_FLOOR
    sv_kept = sv[keep]
    k = np.arange(sv_kept.size)
    if sv_kept.size < 2:
        return DecayEstimate(1.0, sv)
    slope = np.polyfit(k, np.log(sv_kept), 1)[0]
    return DecayEstimate(float(np.exp(slope)), sv)


# ---------------------------------------------------------------------------
# Weyl heat flow by direct convolution

def weyl_convolutions(problem: ToeplitzProblem, points) -> list:
    """The heat-flow convolution of e^q at the graph point over each x of
    ``points``, integrated in closed form.

    The heat kernel of H^{-1}/4 is e^{-4 wbar.Hw} over its own integral
    on C^n, so in block coordinates t of w the integrand is
    exp(-t.Gt + l.t + q(x)) over that integral, with G = 4 Hr - F, Hr the
    block realification of H, F the matrix of q and l = -2 F X the linear
    term of q(x - w).  Re G > 0 is absolute convergence, and the ratio of
    the two completed squares is

        4^n det(H) det(G)^{-1/2} exp(q(x) + l.G^{-1}l / 4),

    with 4^n det(H) = det(4 Hr)^{1/2} taken as a logarithm, so a Levi form
    as small as 1e-200 I needs no determinant in the double range.  The
    checks, G, G^{-1} and both determinants are the problem's and are set
    up once; only l and the exponent are taken at each point.
    """
    problem.require_admissible()
    q = problem.q
    fmat = _block_order(form_matrix(q.qxx, q.qxbx, q.qxbxb))
    # far from unit scale G and the value at a point leave the double
    # range; each is checked instead of warned about
    with np.errstate(all="ignore"):
        heat = 4.0 * _realified(problem.weight.h)
        conv = _GaussianIntegral(heat - fmat, "the Weyl convolution's integrand",
                                 NotAbsolutelyConvergent)
        log_heat = _GaussianIntegral(heat, "the heat kernel").log_base
        values = []
        for x in points:
            x = np.atleast_1d(np.asarray(x, dtype=complex))
            xt = np.concatenate((x.real, x.imag))
            value = np.exp(conv.log(-2.0 * fmat @ xt) - log_heat + xt @ fmat @ xt)
            if not np.isfinite(np.abs(value)):
                raise NumericalFailure(
                    f"the Weyl convolution at |x| = {np.linalg.norm(x):.3e} leaves the double range"
                )
            values.append(complex(value))
    return values


# ---------------------------------------------------------------------------
# coherent-state norms

def _coherent_images(problem: ToeplitzProblem, points):
    """(M, images): the operator's image of the normalized coherent state
    at each w of ``points`` is T k_w(z) = exp(z.Mz + z.c + d), and
    ``images`` lists (w, c, d) in turn.

    With k_w = e^{2 Psi(x, conj w) - Phi(w)} / ||1|| and the Bergman kernel
    e^{2 Psi(z, conj x)} / ||1||^2, in block coordinates t of x

        T k_w(z) = e^{-Phi(w)} / ||1||^3 int e^{-t.Gt + (l + A z).t} dt,

    l.t = 2 conj(w).Hx and (Az).t = 2 conj(x).Hz, so completing the square
    gives M = A^T G^{-1} A / 4, the same at every w, c = A^T G^{-1} l / 2
    and d from det(G)^{-1/2} e^{l.G^{-1}l/4}; only l, c and d are taken at
    each point."""
    problem.require_admissible()
    _require_hermitian(problem.weight)
    n, weight = problem.n, problem.weight
    gauss = _gaussian_exponent(problem)
    px = _xxbar_rows(n)[:n]  # x = px t
    with np.errstate(all="ignore"):
        # pi^n, the x-integral's unit, over ||1||^3 = (pi^n / det(2H))^{3/2}
        log_const = 1.5 * _lapack.slogdet(2.0 * weight.h)[1] - 0.5 * n * math.log(math.pi)
        kernel = 2.0 * px.conj().T @ weight.h  # A
        half = kernel.T @ gauss.ginv / 2.0
        images = []
        for w in points:
            w = np.atleast_1d(np.asarray(w, dtype=complex))
            lin = 2.0 * px.T @ (np.conj(w) @ weight.h)
            images.append((w, half @ lin, gauss.log(lin) + log_const - weight.value(w)))
        return half @ kernel / 2.0, images


def coherent_norms(problem: ToeplitzProblem, points) -> list:
    """Norms of the operator applied to the normalized coherent states at
    each w of ``points``, in closed form: no basis and no stationary-phase
    constants.  The square of T k_w(z) = exp(z.Mz + z.c + d)
    (:func:`_coherent_images`) against e^{-2 Phi} is one more completed
    square, in block coordinates s of z, with exponent matrix
    R = 2 Hr - 2 Mr (Mr the real form of Re(z.Mz)) and L.s = 2 Re(z.c):

        ||T k_w||^2 = e^{2 Re d} pi^n det(R)^{-1/2} e^{L.R^{-1}L/4}.

    It is finite exactly when R is positive definite, which admissibility
    implies and ``QuadratureDivergence`` checks; R is set up once.  A norm
    that leaves the double range raises ``NumericalFailure``."""
    m, images = _coherent_images(problem, points)
    n = problem.n
    px = _xxbar_rows(n)[:n]  # z = px s
    norms = []
    with np.errstate(all="ignore"):
        mr = np.real(px.T @ m @ px)
        square = _GaussianIntegral(2.0 * (_realified(problem.weight.h) - mr),
                                   "the squared image of a coherent state")
        for w, c, d in images:
            log_sq = n * math.log(math.pi) + square.log(2.0 * np.real(c @ px))
            norm = float(np.exp(d.real + 0.5 * log_sq.real))
            if not 0.0 < norm < math.inf:
                raise NumericalFailure(
                    f"the coherent-state norm at |w| = {np.linalg.norm(w):.3e} leaves the double range"
                )
            norms.append(norm)
    return norms

