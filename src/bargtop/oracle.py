"""Brute-force numerical ground truth at n <= 2.

Galerkin sections of the operator in the orthonormalized monomial basis,
direct quadrature of the Weyl heat flow, and coherent-state norms.  None
of it trusts the closed-form pipeline; agreement is the cross-check.

Quadrature design: integrands here are polynomials (or entire functions)
against a Gaussian e^{-t.Gt} whose exponent G is complex symmetric with
positive definite real part.  The rule therefore scales tensor
Gauss-Hermite nodes by G^{-1/2}: the nodes move onto a rotated contour on
which polynomial integrands are integrated exactly, with no cancellation.
A rule matched only to |e^{-t.Gt}| leaves an oscillatory factor whose
cancellation (condition number up to ~1e14 at basis size 40) destroys the
relative accuracy of the small matrix entries; the scaled rule does not.

A Galerkin entry integrates a product of two basis monomials, a polynomial
of total degree at most 2 d for basis degree d, so order d + 1 is already
exact and is the default.  Galerkin sections sum one table of monomial
rows at the nodes.  Row 0 is the rule's weights, and each row is filled in
place from its parent's and normalized at each step, so entries stay near
the size of the integrand, not |x|^d.  One byte budget,
``_TABLE_MAX_BYTES``, bounds that table: a rule whose whole table exceeds
it is summed in slices of its first dimension, and a basis whose slice
still exceeds it is refused before anything is allocated.

A coherent-state coefficient needs no nodes.  Completing the square in the
Gaussian e^{-t.Gt} times the kernel e^{2 Psi(x, conj w)} leaves a Gaussian
moment E[conj(x)^alpha], with mean and pseudo-covariance read off G^{-1};
Stein's identity gives each moment exactly from its parent and the
parent's n lower neighbours, normalized by the basis norms as it goes.
The recurrence holds the index list and one complex moment per monomial,
and the same byte budget refuses a basis whose state exceeds it before
the basis is listed.

The Weyl convolution keeps its whole exponent, quadratic and linear, in
the Gaussian: after the scaling and a shift of the contour by the
imaginary part of the linear term, each of its 2n factors is the integral
of e^{-s^2 + alpha s} with real alpha, and its order is derived from the
Gauss-Hermite remainder for e^{alpha s}.  The tensor rule for that product
is the product of the 1d sums.  Nodes and weights come from
``scipy.special.roots_hermite`` (Golub-Welsch with a Newton step, an
asymptotic expansion from order 150); the Weyl rule takes the logarithms
of its weights from a recurrence instead, since its orders reach
thousands, where the far weights underflow.

SciPy is imported inside the functions that call it, so importing the
package (and running ``classify`` or ``scan``) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotAbsolutelyConvergent, NumericalFailure, OracleRefusal, QuadratureDivergence,
)
from .forms import Weight, form_matrix
from .toeplitz import ToeplitzProblem

__all__ = [
    "QuadratureSpec",
    "TruncatedOperator",
    "truncated_matrix",
    "norm_trend",
    "is_plateau",
    "DecayEstimate",
    "singular_decay",
    "WeylConvolution",
    "weyl_convolution",
    "numeric_weyl",
    "numeric_coherent_norm",
]

@dataclass
class QuadratureSpec:
    rule: str
    order: int


@dataclass
class TruncatedOperator:
    """Galerkin section of the operator in the monomial basis."""

    size: int
    t: np.ndarray
    spec: QuadratureSpec
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


#: memory budget of one oracle computation: the table of monomial rows at
#: the nodes of a Galerkin rule (the rule holds little besides), or the
#: state of the coherent moment recurrence
_TABLE_MAX_BYTES = 1 << 28
#: largest order whose nodes and weights ``np.polynomial.laguerre.laggauss``
#: computes without overflow (measured with NumPy 2.4; 187 overflows); the
#: radial path's rule has order size + 10, so its sections stop at size 176
_LAGUERRE_MAX_ORDER = 186


def _basis_degree(n: int, size: int) -> int:
    """Top total degree of the first ``size`` monomials in n <= 2 variables,
    without listing them: the least d with C(d + n, n) >= size."""
    if n == 1:
        return size - 1
    d = (math.isqrt(8 * size) - 3) // 2  # a lower bound
    while math.comb(d + 2, 2) < size:
        d += 1
    return d


def _table_bytes(n: int, rows: int, order: int) -> int:
    """Bytes of the complex table of ``rows`` monomial rows at the points
    of one piece of :func:`_tensor_chunks`, for the rule of ``order`` in 2n
    variables: the whole rule, or a slice of its first dimension when the
    whole table exceeds ``_TABLE_MAX_BYTES``.  A Galerkin section of
    ``size`` has 2 size rows (at x and at conj(x)); the table is the
    largest array it allocates."""
    whole = 16 * rows * order ** (2 * n)
    return whole if whole <= _TABLE_MAX_BYTES else whole // order


def _coherent_state_bytes(nbasis: int) -> int:
    """Bytes the coherent moment recurrence holds for a basis of ``nbasis``
    monomials, bounded above: each multi-index, a tuple in the index list
    and a key of the dict of moments, takes 150-220 bytes with its complex
    moment in CPython 3.11 (tracemalloc peaks from 100 to 88000 monomials at
    n = 1 and 2), so 256 are counted."""
    return 256 * nbasis


def _require_bytes(nbytes: int, what: str) -> None:
    if nbytes > _TABLE_MAX_BYTES:
        raise OracleRefusal(
            f"{what} needs more memory than the oracle's limit of {_TABLE_MAX_BYTES >> 20} MiB"
        )


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


def _log_monomial_norms_sq(hdiag, indices):
    """log ||x^alpha||^2 = sum_i log(pi alpha_i! / (2 h_i)^{alpha_i + 1})."""
    from scipy.special import gammaln

    a = np.asarray(indices, dtype=float)
    log_2h = np.array([math.log(2.0 * h) for h in hdiag])
    return (math.log(math.pi) + gammaln(a + 1.0) - (a + 1.0) * log_2h).sum(axis=1)


def _lower(alpha, i):
    """The multi-index alpha - e_i."""
    return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]


def _parent(alpha):
    """(alpha - e_l, l) with l the last positive exponent of alpha."""
    l = max(i for i, a in enumerate(alpha) if a)
    return _lower(alpha, l), l


def _monomial_parents(indices):
    """(p, l) for each multi-index after the first: alpha_p = alpha - e_l
    by :func:`_parent`, so x^alpha = x^alpha_p x_l."""
    where = {alpha: j for j, alpha in enumerate(indices)}
    return [(where[p], l) for p, l in map(_parent, indices[1:])]


def _monomials(points, indices, log_norms_sq, weights):
    """Rows of normalized monomials at complex points (pts, n), times the
    rule's ``weights``: row 0 is the weights over the constant's norm, and
    each row is its parent's times x_l times the ratio of their norms, so
    no entry grows like |x|^d before it is normalized."""
    out = np.empty((len(indices), points.shape[0]), dtype=complex)
    out[0] = weights * math.exp(-0.5 * log_norms_sq[0])
    for j, (p, l) in enumerate(_monomial_parents(indices), 1):
        np.multiply(out[p], points[:, l], out=out[j])
        out[j] *= math.exp(-0.5 * (log_norms_sq[j] - log_norms_sq[p]))
    return out


# ---------------------------------------------------------------------------
# complex-scaled Gaussian rule

def _gaussian_exponent_matrix(problem: ToeplitzProblem) -> np.ndarray:
    """Complex symmetric matrix G with t.Gt = 2 Phi(x) - q(x) in block
    coordinates.  For a weight without pluriharmonic part its real part is
    positive definite exactly when the problem is admissible; a
    pluriharmonic part can make it indefinite, which is refused."""
    weight, q = problem.weight, problem.q
    # 2 Phi has blocks (2P, 2H, 2 conj(P)) in the convention of forms
    g = _block_order(form_matrix(
        2.0 * weight.p - q.qxx, 2.0 * weight.h - q.qxbx, 2.0 * np.conj(weight.p) - q.qxbxb
    ))
    re_eigs = np.linalg.eigvalsh(np.real(g))
    if re_eigs[0] <= 0.0:
        raise QuadratureDivergence(
            f"Gaussian weight is not integrable (min Re eigenvalue {re_eigs[0]:.3e})"
        )
    return g


def _substitution(gmat: np.ndarray):
    """M = G^{-1/2} and det(M): t = M s turns e^{-t.Gt} into e^{-s.s}."""
    import scipy.linalg

    sqrtg = scipy.linalg.sqrtm(gmat.astype(complex))
    return np.linalg.inv(sqrtg), complex(1.0 / np.linalg.det(sqrtg))


def _scaled_rule(gmat: np.ndarray, order: int):
    """Substitution matrix M = G^{-1/2}, its det, and the 1d nodes/weights.

    integral of e^{-t.Gt} f(t) over R^m  =  det(M) * sum w_i f(M s_i)
    exactly for polynomial f of degree < 2*order.
    """
    from scipy.special import roots_hermite

    minv, detm = _substitution(gmat)
    s, w = roots_hermite(order)
    return minv, detm, s, w


def _tensor_product(s, w, dims):
    grids = np.meshgrid(*([s] * dims), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wg = np.meshgrid(*([w] * dims), indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wg], axis=1), axis=1)
    return pts, wts


def _tensor_chunks(s, w, dims, rows):
    """Yield (points, weights) pieces of the tensor rule: the whole rule, or
    slices of its first dimension when a complex table of ``rows`` rows at
    all its points would exceed ``_TABLE_MAX_BYTES``."""
    if 16 * rows * s.size ** dims <= _TABLE_MAX_BYTES:
        yield _tensor_product(s, w, dims)
        return
    rest_pts, rest_w = _tensor_product(s, w, dims - 1)
    for i in range(s.size):
        pts = np.empty((rest_pts.shape[0], dims))
        pts[:, 0] = s[i]
        pts[:, 1:] = rest_pts
        yield pts, w[i] * rest_w


# ---------------------------------------------------------------------------
# truncated operator

def _is_radial(problem: ToeplitzProblem) -> bool:
    q = problem.q
    if problem.n != 1:
        return False
    scale = max(np.max(np.abs(q.qxbx)), 1.0)
    return (
        np.max(np.abs(q.qxx)) <= 1e-14 * scale
        and np.max(np.abs(q.qxbxb)) <= 1e-14 * scale
    )


def _radial_diagonal(problem: ToeplitzProblem, size: int, order: int) -> np.ndarray:
    """Diagonal entries for radial q at n=1 via Gauss-Laguerre on the
    rotated radial contour: entry k equals (2h/a)^{k+1} times an exact
    moment ratio, with a = 2h - lam."""
    from scipy.special import gammaln

    h = float(np.real(problem.weight.h[0, 0]))
    lam = complex(problem.q.qxbx[0, 0])
    a = 2.0 * h - lam
    s, w = np.polynomial.laguerre.laggauss(order)
    ks = np.arange(size)
    # moment ratio  sum w s^k / k!  computed in log space, exact to rounding
    terms = np.exp(ks[:, None] * np.log(s)[None, :] - gammaln(ks + 1.0)[:, None])
    ratios = terms @ w
    scale = np.exp((ks + 1.0) * np.log(2.0 * h / a))
    return ratios * scale


def truncated_matrix(problem: ToeplitzProblem, size: int, order: int | None = None) -> TruncatedOperator:
    """T[j, k] = <e^q e_j, e_k> in the weighted inner product, for the
    orthonormalized monomial basis e_j.

    Rotation invariance makes the matrix exactly diagonal for radial q at
    n = 1, and those entries are computed by an exact 1d moment rule.
    The default ``order`` is the basis degree plus one, the least order at
    which the Gauss rule is exact for every entry.  A radial section whose
    rule's order exceeds ``_LAGUERRE_MAX_ORDER``, or a tensor-rule one whose
    table slice exceeds ``_TABLE_MAX_BYTES``, is refused first; a radial
    rule of admitted order allocates well below that budget.
    """
    problem.require_admissible()
    _require_small(problem)
    hdiag = _require_oracle_weight(problem.weight)
    if order is None:
        order = _basis_degree(problem.n, size) + 1
    radial = _is_radial(problem)
    if radial:
        order = max(order, size + 10)
        if order > _LAGUERRE_MAX_ORDER:
            raise OracleRefusal(
                f"a radial Galerkin section of size {size} needs a Gauss-Laguerre rule of "
                f"order {order}, above the largest finite one ({_LAGUERRE_MAX_ORDER})"
            )
    else:
        _require_bytes(_table_bytes(problem.n, 2 * size, order),
                       f"a Galerkin section of size {size}")
    indices = monomial_indices(problem.n, size)

    if radial:
        t = np.diag(_radial_diagonal(problem, size, order).astype(complex))
        return TruncatedOperator(size, t, QuadratureSpec("gauss-laguerre-rotated", order), indices)

    gmat = _gaussian_exponent_matrix(problem)
    minv, detm, s, w = _scaled_rule(gmat, order)
    log_norms = _log_monomial_norms_sq(hdiag, indices)
    n = problem.n
    t = np.zeros((size, size), dtype=complex)
    for pts, wts in _tensor_chunks(s, w, 2 * n, 2 * size):
        tn = pts @ minv.T
        x = tn[:, :n] + 1j * tn[:, n:]
        xb = tn[:, :n] - 1j * tn[:, n:]  # analytic continuation of conj(x)
        # one table for both: glibc's malloc returned two tables of equal
        # size to the system after every section, and the next section
        # faulted their pages in again (+0.6 ms at size 40)
        rows = _monomials(np.concatenate((x, xb)), indices, log_norms, np.tile(np.sqrt(wts), 2))
        t += rows[:, :wts.size] @ rows[:, wts.size:].T
    t *= detm
    spec = QuadratureSpec("gauss-hermite-complex-scaled", order)
    return TruncatedOperator(size, t, spec, indices)


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


def singular_decay(problem: ToeplitzProblem, size: int) -> DecayEstimate:
    """Least-squares geometric decay ratio of the singular values."""
    top = truncated_matrix(problem, size)
    sv = np.linalg.svd(top.t, compute_uv=False)
    keep = sv > sv[0] * 1e-12
    sv_kept = sv[keep]
    k = np.arange(sv_kept.size)
    if sv_kept.size < 2:
        return DecayEstimate(1.0, sv)
    slope = np.polyfit(k, np.log(sv_kept), 1)[0]
    return DecayEstimate(float(np.exp(slope)), sv)


# ---------------------------------------------------------------------------
# Weyl heat flow by direct convolution

#: target of each factor's Gauss-Hermite remainder, relative to the factor
_WEYL_RULE_TOL = 1e-15
#: the weight recurrence costs O(order^2): order 5000, which |alpha| of
#: about 120 asks for, and its doubling take about 1 s together (one core
#: of a shared 2-core x86 machine)
_WEYL_MAX_ORDER = 5000


def _hermite_order(alpha: float) -> int:
    """Least Gauss-Hermite order N whose remainder for e^{alpha s} is at
    most ``_WEYL_RULE_TOL`` relative to the exact integral sqrt(pi) e^{alpha^2/4}.

    The remainder is alpha^{2N} N! / (2^N (2N)!) to leading order; each
    order multiplies it by alpha^2 / (4 (2N + 1)).
    """
    if alpha == 0.0:
        return 1
    order, log_rem = 1, 2.0 * math.log(abs(alpha)) - math.log(4.0)
    while log_rem > math.log(_WEYL_RULE_TOL):
        log_rem += 2.0 * math.log(abs(alpha)) - math.log(4.0 * (2 * order + 1))
        order += 1
        if order > _WEYL_MAX_ORDER:
            raise NumericalFailure(
                f"Weyl convolution needs a Gauss-Hermite order above {_WEYL_MAX_ORDER} "
                f"(|alpha| = {abs(alpha):.3e})"
            )
    return order


def _hermite_log_rule(order: int):
    """Gauss-Hermite nodes and the logarithms of their weights.

    From order ~400 the weights of the far nodes underflow to 0, yet a
    large alpha puts the integrand's peak there.  Written as
    1 / (N p(s)^2), with p the orthonormal Hermite polynomial of degree
    N - 1, their logarithms do not: p runs through its three-term
    recurrence, rescaled whenever it exceeds 1.
    """
    from scipy.special import roots_hermite

    s, _ = roots_hermite(order)
    p_prev, p, log_p = np.zeros_like(s), np.full_like(s, math.pi ** -0.25), np.zeros_like(s)
    for k in range(1, order):
        p_prev, p = p, math.sqrt(2.0 / k) * s * p - math.sqrt((k - 1) / k) * p_prev
        scale = np.maximum(np.abs(p), 1.0)
        p_prev, p, log_p = p_prev / scale, p / scale, log_p + np.log(scale)
    return s, -math.log(order) - 2.0 * (np.log(np.abs(p)) + log_p)


@dataclass
class WeylConvolution:
    """The Weyl convolution at one graph point: a prefactor times the 2n
    one-dimensional integrals of e^{-s^2 + alpha_j s}."""

    log_prefactor: complex
    alpha: np.ndarray

    @property
    def order(self) -> int:
        """The derived Gauss-Hermite order, set by the largest |alpha_j|."""
        return _hermite_order(float(np.max(np.abs(self.alpha))))

    def value(self, order: int | None = None) -> complex:
        """The tensor Gauss-Hermite rule, evaluated as the product of its
        one-dimensional sums."""
        s, log_w = _hermite_log_rule(self.order if order is None else order)
        a = self.alpha[:, None]
        # taken relative to e^{alpha^2/4}, no term overflows
        sums = np.exp(log_w + a * s - a * a / 4.0).sum(axis=1)
        log_total = self.log_prefactor + np.sum(np.log(sums) + self.alpha ** 2 / 4.0)
        return complex(np.exp(log_total))


def weyl_convolution(problem: ToeplitzProblem, x) -> WeylConvolution:
    """The heat-flow convolution of e^q at the graph point over x, reduced
    to one-dimensional Gaussian integrals.

    The heat kernel of H^{-1}/4 is the density (4/pi)^n det(H) e^{-4 wbar.Hw}
    on C^n, so in block coordinates t of w the integrand is
    exp(-t.Gt + l.t + q(x)) with G = 4 Hr - F, Hr the block realification
    of H, F the matrix of q and l = -2 F X the linear term of q(x - w).
    Re G > 0 is absolute convergence.  t = M s with M = G^{-1/2} makes the
    exponent -s.s + b.s with b = M l, and the contour shift s -> s + i Im(b)/2
    leaves the real linear term alpha = Re b: on the shifted contour the
    integrand is positive, so the rule sums without cancellation.
    """
    problem.require_admissible()
    _require_small(problem)
    n, q, h = problem.n, problem.q, problem.weight.h
    x = np.atleast_1d(np.asarray(x, dtype=complex))

    fmat = _block_order(form_matrix(q.qxx, q.qxbx, q.qxbxb))
    gmat = 4.0 * np.block([[h.real, -h.imag], [h.imag, h.real]]) - fmat
    if np.linalg.eigvalsh(gmat.real)[0] <= 0.0:
        raise NotAbsolutelyConvergent(
            "shifted exponent of the convolution is not negative definite"
        )
    minv, detm = _substitution(gmat)
    xt = np.concatenate((x.real, x.imag))
    b = minv.T @ (-2.0 * fmat @ xt)
    alpha, beta = b.real, b.imag
    log_prefactor = (
        n * math.log(4.0 / math.pi) + math.log(np.linalg.det(h).real) + np.log(detm)
        + xt @ fmat @ xt + np.sum(0.5j * alpha * beta - 0.25 * beta ** 2)
    )
    return WeylConvolution(complex(log_prefactor), alpha)


def numeric_weyl(problem: ToeplitzProblem, x, order: int | None = None) -> complex:
    """Weyl symbol at the graph point over x by Gaussian convolution, with
    the derived Gauss-Hermite order unless ``order`` is given."""
    return weyl_convolution(problem, x).value(order)


# ---------------------------------------------------------------------------
# coherent-state norms

def _coherent_coefficients(problem: ToeplitzProblem, w, nbasis: int):
    """Basis coefficients <e^q k_w, e_j> for the normalized coherent state
    k_w; their square sum is the squared norm of the operator image.

    In block coordinates t the coefficient of x^alpha integrates
    conj(x)^alpha e^{-t.Gt + l.t}, where l.t = 2 conj(w).H x is the
    exponent of the kernel e^{2 Psi(x, conj w)}.  Completing the square
    makes it pi^n det(G)^{-1/2} e^{l.G^{-1}l/4} times the Gaussian moment
    E[y^alpha] of y = conj(x) = P t, continued analytically from the
    Gaussian of mean G^{-1}l/2 and covariance G^{-1}/2: y has mean
    mu = P G^{-1}l/2 and pseudo-covariance C = P G^{-1}P^T/2.  Stein's
    identity E[y_l F(y)] = mu_l E[F] + sum_i C_li E[d_i F] with F = y^p,
    p = alpha - e_l, gives each moment from its parent and the parent's n
    lower neighbours.  On the moments normalized by the basis norms,
    m_alpha = E[y^alpha] ||1|| / ||x^alpha||, it reads

        m_alpha = sqrt(2h_l / alpha_l) (mu_l m_p + sum_i C_li sqrt(2h_i p_i) m_{p - e_i}),

    with m_0 = 1: exact, with no nodes, and with entries near the size of
    the coefficients, not |y|^d."""
    problem.require_admissible()
    _require_small(problem)
    hdiag = _require_oracle_weight(problem.weight)
    n = problem.n
    _require_bytes(_coherent_state_bytes(nbasis), f"a coherent-state basis of {nbasis} monomials")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    g = _gaussian_exponent_matrix(problem)
    hw = np.conj(w) @ problem.weight.h
    lin = 2.0 * np.concatenate((hw, 1j * hw))
    ginv = np.linalg.inv(g)
    mean = ginv @ lin / 2.0
    mu = (mean[:n] - 1j * mean[n:]).tolist()
    cov = ((ginv[:n, :n] - ginv[n:, n:] - 1j * (ginv[:n, n:] + ginv[n:, :n])) / 2.0).tolist()
    two_h = (2.0 * hdiag).tolist()
    indices = monomial_indices(n, nbasis)
    m = {indices[0]: 1.0 + 0.0j}
    for alpha in indices[1:]:
        p, l = _parent(alpha)
        acc = mu[l] * m[p]
        for i, pi in enumerate(p):
            if pi:
                acc += cov[l][i] * math.sqrt(two_h[i] * pi) * m[_lower(p, i)]
        m[alpha] = math.sqrt(two_h[l] / alpha[l]) * acc
    # pi^n / ||1|| times the coherent-state normalization prod sqrt(2 h_i / pi)
    # is prod 2 h_i; det(G)^{-1/2} takes each eigenvalue's principal root,
    # since Re G > 0 puts every eigenvalue in the right half-plane
    log_pref = (np.sum(np.log(2.0 * hdiag)) - 0.5 * np.sum(np.log(np.linalg.eigvals(g)))
                + lin @ mean / 2.0 - problem.weight.value(w))
    return np.fromiter(m.values(), complex, nbasis) * np.exp(log_pref)


def numeric_coherent_norm(problem: ToeplitzProblem, w, nbasis: int | None = None) -> float:
    """Norm of the operator applied to the normalized coherent state at w,
    via basis expansion of the projected image (no stationary-phase
    constants involved).  A norm that is not a positive finite number, as
    when the basis is far too small for |w| or a double overflows, raises
    ``NumericalFailure``."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if nbasis is None:
        nbasis = 40 + int(6.0 * problem.weight.value(w))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        coeffs = _coherent_coefficients(problem, w, nbasis)
        norm = float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
    if not 0.0 < norm < math.inf:
        raise NumericalFailure(
            f"coherent-state norm at |w| = {np.linalg.norm(w):.3e} on a basis of {nbasis} "
            f"monomials is {norm!r}, not a positive finite number"
        )
    return norm
