"""Brute-force numerical ground truth at n <= 2.

Galerkin sections of the operator in the orthonormalized monomial basis,
the Weyl heat flow as a direct Gaussian convolution, and coherent-state
norms.  None of it trusts the closed-form pipeline; agreement is the
cross-check.

None of it needs quadrature nodes.  Galerkin entries and coherent-state
coefficients integrate a polynomial against a Gaussian e^{-t.Gt} whose
exponent G is complex symmetric with positive definite real part (for a
coherent state, times the kernel e^{2 Psi(x, conj w)}, whose exponent
completes the square).  So each is a Gaussian moment in x and conj(x),
with mean and pseudo-covariance read off G^{-1}, and Stein's identity
gives every moment exactly from its parent and the parent's n lower
neighbours, normalized by the basis norms as it goes: entries stay near
the size of the integrand, not |x|^d, and no oscillatory factor is summed.
One byte budget, ``_TABLE_MAX_BYTES``, bounds a section's table with its
basis, or a coherent state's basis with its moments, and a basis over it
is refused before it is listed.  Coherent states at several points of one
problem (``coherent_norms``) share everything but their mean: the checks,
G, G^{-1}, the pseudo-covariance and the Gaussian prefactor are set up
once, and the basis is listed once, at the largest size, since each
smaller basis is a prefix of it in the degree-then-lex order.

The Weyl convolution integrates e^{-t.Gt + l.t} alone, with no polynomial,
so the completed square is the whole integral: pi^n det(G)^{-1/2}
e^{l.G^{-1}l/4}.  Every det(G)^{-1/2} here takes the principal root of
each eigenvalue (``_log_rsqrt_det``).  Convolutions at several points of
one problem (``weyl_convolutions``) share the checks, G, G^{-1} and the
x-free part of the logarithm.

Near the float maximum or minimum a problem can be admissible while G,
a pseudo-covariance, det(H), a basis size or a Weyl value leaves the
double range; each is checked where it is first formed and raises
``NumericalFailure``, with no warning on the way.

The oracle imports no SciPy: importing the package and every oracle
experiment leave it unloaded.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

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
    "numeric_weyl",
    "coherent_norms",
    "numeric_coherent_norm",
]

@dataclass
class TruncatedOperator:
    """Galerkin section of the operator in the monomial basis."""

    size: int
    t: np.ndarray
    indices: list

    def spectral_norm(self) -> float:
        return float(np.linalg.svd(self.t, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# basis bookkeeping (diagonal Hermitian weights only)

def _block_order(mat: np.ndarray) -> np.ndarray:
    """A matrix in interleaved coordinates (u_1, v_1, u_2, ...) rewritten in
    the oracle's block coordinates (u_1..u_n, v_1..v_n)."""
    m = mat.shape[0]
    perm = np.r_[0:m:2, 1:m:2]
    return mat[np.ix_(perm, perm)]


def _require_small(problem: ToeplitzProblem) -> None:
    if problem.n > 2:
        raise OracleRefusal("oracle supports n <= 2")


#: memory budget of one oracle computation: a Galerkin section and its
#: basis, or the basis and the moments of a coherent state
_TABLE_MAX_BYTES = 1 << 28


def _basis_bytes(size: int) -> int:
    """Bytes of a coherent state's moment recurrence on ``size`` monomials,
    bounded above: the index list while the basis is built, then its index
    arrays and one complex moment per monomial, took 166-202 bytes per
    monomial from 20000 to 88000 monomials at n = 1 and 2 (tracemalloc
    peaks, CPython 3.11), so 256 are counted."""
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


def _require_oracle_weight(weight: Weight) -> np.ndarray:
    if not weight.is_hermitian:
        raise OracleRefusal("oracle requires a weight without pluriharmonic part")
    h = weight.h
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

    For a Gaussian vector y with mean mu and pseudo-covariance C, Stein's
    identity E[y_l F(y)] = mu_l E[F] + sum_i C_li E[d_i F] with F = y^p,
    p = alpha - e_l and l the last positive exponent of alpha, gives each
    moment from its parent and the parent's n lower neighbours.  On the
    moments normalized by the basis norms, m_alpha = E[y^alpha] ||1|| /
    ||x^alpha|| with ||x^alpha||^2 = prod_i pi alpha_i! / (2h_i)^{alpha_i + 1},
    it reads

        m_alpha = sqrt(2h_l / alpha_l) (mu_l m_p + sum_i C_li sqrt(2h_i p_i) m_{p - e_i}),

    exact, with no nodes, and with entries near the size of the moments,
    not |y|^d.  For the basis of :func:`monomial_indices`, ``lower[i, j]``
    is the position of alpha_j - e_i (0 where alpha_j has no x_i) and
    ``raised[i, j]`` is sqrt(2h_i alpha_i), the normalized factor of
    d_i x^alpha; they are NumPy arrays, not lists, so that a basis of 2^20
    monomials stays within :func:`_basis_bytes`.
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

    def steps(self, size: int):
        """(j, p, l, sqrt(2h_l / alpha_l), lower, raised) for each
        alpha = alpha_j after the constant among the first ``size``, with p
        the position of its parent and ``lower``, ``raised`` the parent's
        columns of those arrays, as Python numbers: they are converted 1024
        monomials at a time, which keeps the per-monomial state in NumPy
        arrays and the recurrences' loops on Python scalars.  The basis
        order is prefix-closed, so a prefix runs the recurrence of the
        smaller basis, bit for bit, with no copy of its arrays."""
        block = 1 << 10
        for start in range(1, size, block):
            js = slice(start, min(start + block, size))
            ps = self.parent[js]
            yield from zip(range(js.start, js.stop), ps.tolist(), self.last[js].tolist(),
                           self.step[js].tolist(), zip(*self.lower[:, ps].tolist()),
                           zip(*self.raised[:, ps].tolist()))


# ---------------------------------------------------------------------------
# the Gaussian exponent

def _gaussian_exponent_matrix(problem: ToeplitzProblem) -> np.ndarray:
    """Complex symmetric matrix G with t.Gt = 2 Phi(x) - q(x) in block
    coordinates.  For a weight without pluriharmonic part its real part is
    positive definite exactly when the problem is admissible; a
    pluriharmonic part can make it indefinite, which is refused."""
    weight, q = problem.weight, problem.q
    # 2 Phi has blocks (2P, 2H, 2 conj(P)) in the convention of forms
    with np.errstate(all="ignore"):
        g = _block_order(form_matrix(
            2.0 * weight.p - q.qxx, 2.0 * weight.h - q.qxbx, 2.0 * np.conj(weight.p) - q.qxbxb
        ))
    _require_finite(g, "the Gaussian exponent matrix")
    re_eigs = np.linalg.eigvalsh(np.real(g))
    if re_eigs[0] <= 0.0:
        raise QuadratureDivergence(
            f"Gaussian weight is not integrable (min Re eigenvalue {re_eigs[0]:.3e})"
        )
    return g


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


def _log_rsqrt_det(g: np.ndarray) -> complex:
    """log det(G)^{-1/2}, taking each eigenvalue's principal root: Re G > 0
    puts every eigenvalue in the right half-plane."""
    return -0.5 * np.sum(np.log(np.linalg.eigvals(g)))


def _log_gaussian_prefactor(g: np.ndarray, hdiag) -> complex:
    """log(prod_i 2h_i det(G)^{-1/2}), pi^n det(G)^{-1/2} over ||1||^2."""
    return np.sum(np.log(2.0 * hdiag)) + _log_rsqrt_det(g)


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
    _require_small(problem)
    hdiag = _require_oracle_weight(problem.weight)
    _require_bytes(_section_bytes(size), f"a Galerkin section of size {size}")
    g = _gaussian_exponent_matrix(problem)
    sxx, sxxb, sxbxb = _pseudo_covariances(np.linalg.inv(g))
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
        for k, p, l, step, below, raised in rec.steps(size):
            for mat, cov, mixed, diagonal in passes:
                width = k + diagonal
                acc = (mixed[l, :, :width] * mat[p][rec.lower[:, :width]]).sum(axis=0)
                for c, low, r in zip(cov[l], below, raised):
                    if r:
                        acc += c * r * mat[low, :width]
                mat[k, :width] = step * acc
        t *= np.exp(_log_gaussian_prefactor(g, hdiag))
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
    return [
        float(np.linalg.svd(top.t[:s, :s], compute_uv=False)[0]) for s in sizes
    ]


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
    sv = np.linalg.svd(top.t, compute_uv=False)
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

    The heat kernel of H^{-1}/4 is the density (4/pi)^n det(H) e^{-4 wbar.Hw}
    on C^n, so in block coordinates t of w the integrand is
    exp(-t.Gt + l.t + q(x)) with G = 4 Hr - F, Hr the block realification
    of H, F the matrix of q and l = -2 F X the linear term of q(x - w).
    Re G > 0 is absolute convergence, and completing the square gives

        4^n det(H) det(G)^{-1/2} exp(q(x) + l.G^{-1}l / 4).

    The checks, G, G^{-1} and the x-free part of the logarithm are the
    problem's and are set up once; only l and the exponent are taken at
    each point.
    """
    problem.require_admissible()
    _require_small(problem)
    n, q, h = problem.n, problem.q, problem.weight.h
    fmat = _block_order(form_matrix(q.qxx, q.qxbx, q.qxbxb))
    # far from unit scale G, det(H) and the value at a point leave the
    # double range; each is checked instead of warned about
    with np.errstate(all="ignore"):
        gmat = 4.0 * np.block([[h.real, -h.imag], [h.imag, h.real]]) - fmat
        _require_finite(gmat, "the exponent of the Weyl convolution")
        if np.linalg.eigvalsh(gmat.real)[0] <= 0.0:
            raise NotAbsolutelyConvergent(
                "shifted exponent of the convolution is not negative definite"
            )
        det_h = float(np.linalg.det(h).real)
        if not 0.0 < det_h < math.inf:
            raise NumericalFailure(f"det(H) = {det_h!r} leaves the double range")
        ginv = np.linalg.inv(gmat)
        log_base = n * math.log(4.0) + math.log(det_h) + _log_rsqrt_det(gmat)
        values = []
        for x in points:
            x = np.atleast_1d(np.asarray(x, dtype=complex))
            xt = np.concatenate((x.real, x.imag))
            lin = -2.0 * fmat @ xt
            value = np.exp(log_base + xt @ fmat @ xt + lin @ ginv @ lin / 4.0)
            if not np.isfinite(np.abs(value)):
                raise NumericalFailure(
                    f"the Weyl convolution at |x| = {np.linalg.norm(x):.3e} leaves the double range"
                )
            values.append(complex(value))
    return values


def numeric_weyl(problem: ToeplitzProblem, x) -> complex:
    """Weyl symbol at the graph point over x by Gaussian convolution: the
    one-point case of :func:`weyl_convolutions`."""
    return weyl_convolutions(problem, (x,))[0]


# ---------------------------------------------------------------------------
# coherent-state norms

def _coherent_basis_size(problem: ToeplitzProblem, w) -> int:
    """The default basis at w, 40 + 6 Phi(w) monomials: the coherent
    state's mass sits near degree 2 Phi(w)."""
    six_phi = 6.0 * problem.weight.value(w)
    if not math.isfinite(six_phi):
        raise NumericalFailure(
            f"the coherent-state basis at |w| = {np.linalg.norm(w):.3e} has {six_phi!r} "
            "monomials, past the double range"
        )
    return 40 + int(six_phi)


def _coherent_states(problem: ToeplitzProblem, points, nbasis: int | None = None):
    """(w, basis size, coefficients) for each w of ``points``, in turn: the
    basis coefficients <e^q k_w, e_j> for the normalized coherent state
    k_w, on ``nbasis`` monomials or on the default basis at w; their square
    sum is the squared norm of the operator image.

    In block coordinates t the coefficient of x^alpha integrates
    conj(x)^alpha e^{-t.Gt + l.t}, where l.t = 2 conj(w).H x is the
    exponent of the kernel e^{2 Psi(x, conj w)}.  Completing the square
    makes it pi^n det(G)^{-1/2} e^{l.G^{-1}l/4} times the Gaussian moment
    E[y^alpha] of y = conj(x) = P t, continued analytically from the
    Gaussian of mean G^{-1}l/2 and covariance G^{-1}/2: y has mean
    mu = P G^{-1}l/2 and the pseudo-covariance of conj(x), and
    :class:`_MomentRecurrence` gives the moments normalized by the basis
    norms.

    Only mu and e^{l.G^{-1}l/4} depend on w.  The checks, G, G^{-1}, the
    pseudo-covariance and the rest of the prefactor are set up once, and
    the basis and its recurrence are listed once, at the largest size;
    each smaller basis runs the same recurrence over a prefix.  Every
    size is held to ``_TABLE_MAX_BYTES`` before the basis is listed."""
    problem.require_admissible()
    _require_small(problem)
    hdiag = _require_oracle_weight(problem.weight)
    n = problem.n
    points = [np.atleast_1d(np.asarray(w, dtype=complex)) for w in points]
    sizes = [_coherent_basis_size(problem, w) if nbasis is None else nbasis for w in points]
    for size in sizes:
        _require_bytes(_basis_bytes(size), f"a coherent-state basis of {size} monomials")
    g = _gaussian_exponent_matrix(problem)
    ginv = np.linalg.inv(g)
    cov = _pseudo_covariances(ginv)[2].tolist()
    # pi^n / ||1|| times the coherent-state normalization prod sqrt(2 h_i / pi)
    # is prod 2 h_i, as in a Galerkin entry
    log_gaussian = _log_gaussian_prefactor(g, hdiag)
    rec = _MomentRecurrence(monomial_indices(n, max(sizes)), hdiag)
    for w, size in zip(points, sizes):
        hw = np.conj(w) @ problem.weight.h
        lin = 2.0 * np.concatenate((hw, 1j * hw))
        mean = ginv @ lin / 2.0
        mu = (mean[:n] - 1j * mean[n:]).tolist()
        m = [1.0 + 0.0j] * size
        for j, p, l, step, below, raised in rec.steps(size):
            acc = mu[l] * m[p]
            for c, low, r in zip(cov[l], below, raised):
                if r:
                    acc += c * r * m[low]
            m[j] = step * acc
        log_pref = log_gaussian + lin @ mean / 2.0 - problem.weight.value(w)
        yield w, size, np.array(m) * np.exp(log_pref)


def _coherent_coefficients(problem: ToeplitzProblem, w, nbasis: int) -> np.ndarray:
    """The coefficients of the coherent state at w on ``nbasis`` monomials."""
    return next(_coherent_states(problem, (w,), nbasis))[2]


def coherent_norms(problem: ToeplitzProblem, points, nbasis: int | None = None) -> list:
    """Norms of the operator applied to the normalized coherent states at
    each w of ``points``, via basis expansion of the projected image (no
    stationary-phase constants involved), on ``nbasis`` monomials or on the
    default basis 40 + 6 Phi(w).  A norm that is not a positive finite
    number, as when the basis is far too small for |w| or a double
    overflows, raises ``NumericalFailure``."""
    norms = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for w, size, coeffs in _coherent_states(problem, points, nbasis):
            norm = float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
            if not 0.0 < norm < math.inf:
                raise NumericalFailure(
                    f"coherent-state norm at |w| = {np.linalg.norm(w):.3e} on a basis of {size} "
                    f"monomials is {norm!r}, not a positive finite number"
                )
            norms.append(norm)
    return norms


def numeric_coherent_norm(problem: ToeplitzProblem, w, nbasis: int | None = None) -> float:
    """The one-point case of :func:`coherent_norms`."""
    return coherent_norms(problem, (w,), nbasis)[0]
