import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings, strategies as st

import bargtop.oracle as oracle_module
from bargtop.errors import (
    NotAbsolutelyConvergent, NumericalFailure, OracleRefusal, QuadratureDivergence,
)
from bargtop.forms import ComplexQuadraticForm, Weight, quadratic_matrix, real_part_matrix
from bargtop.model import ModelInstance, model_problem
from bargtop.oracle import (
    _GaussianIntegral,
    _MomentRecurrence,
    _block_order,
    _coherent_images,
    _gaussian_exponent,
    coherent_norms,
    is_plateau,
    monomial_indices,
    norm_trend,
    singular_decay,
    truncated_matrix,
    weyl_convolutions,
)
from bargtop.toeplitz import ToeplitzProblem, VerdictClass, classify_operator
from bargtop.verify import (
    COHERENT_RADII, coherent_evidence, coherent_scale, coherent_slope, random_admissible_problem,
    weyl_evidence,
)
from bargtop.weyl import weyl_symbol


def _block_complex(t):
    """Block realification (u_1..u_n, v_1..v_n) -> x = u + iv: the oracle's
    coordinates, distinct from the interleaved convention used elsewhere."""
    t = np.asarray(t, dtype=float)
    n = t.size // 2
    return t[:n] + 1j * t[n:]


def scalar_problem(lam, a=0.0):
    return model_problem(ModelInstance(1, lam, np.array([[a]])))


def trivial_problem(n=1):
    return ToeplitzProblem(Weight.model(n), ComplexQuadraticForm.zero(n))


def diagonal_levi_problem(rng, n):
    """Random diagonal Levi form, no pluriharmonic part, and a general q at
    0.2-0.9 of the admissibility limit."""
    h = np.diag(rng.uniform(0.1, 0.5, n))
    weight = Weight(h, np.zeros((n, n)))
    herm = ComplexQuadraticForm(np.zeros((n, n)), h, np.zeros((n, n)))
    while True:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q = ComplexQuadraticForm(a + a.T, b, c + c.T)
        lam_max = scipy.linalg.eigh(
            real_part_matrix(q), real_part_matrix(herm), eigvals_only=True
        )[-1]
        scale = rng.uniform(0.2, 0.9) / lam_max if lam_max > 0 else 1.0
        problem = ToeplitzProblem(weight, scale * q)
        if problem.admissibility.ok:
            return problem


def separable_problem(rng, n):
    """Diagonal Levi form near 1/4 and q = xbar.diag(lam) x, the family the
    benchmark's coherent calls draw from."""
    z = np.zeros((n, n))
    lam = rng.uniform(-1.0, 0.15, n) + 1j * rng.uniform(-0.5, 0.5, n)
    return ToeplitzProblem(Weight(np.diag(rng.uniform(0.22, 0.28, n)), z),
                           ComplexQuadraticForm(z, np.diag(lam), z))


def log_norms_sq(hdiag, indices):
    """log ||x^alpha||^2 = sum_i log(pi alpha_i! / (2 h_i)^{alpha_i + 1}),
    term by term."""
    return np.array([
        sum(math.log(math.pi) + scipy.special.gammaln(a + 1.0) - (a + 1.0) * math.log(2.0 * h)
            for a, h in zip(alpha, hdiag))
        for alpha in indices
    ])


def gauss_hermite_substitution(g):
    """M = G^{-1/2} and det(M): t = M s turns e^{-t.Gt} into e^{-s.s}, the
    contour of the Gauss-Hermite references."""
    sqrtg = scipy.linalg.sqrtm(g.astype(complex))
    return np.linalg.inv(sqrtg), complex(1.0 / np.linalg.det(sqrtg))


def gauss_hermite_section(problem, size, order):
    """The Galerkin section by the tensor Gauss-Hermite rule of ``order``
    on the contour scaled by G^{-1/2}, exact for the polynomial integrands
    from order d + 1 at basis degree d, summed one node of the first
    dimension at a time; monomials are raw powers scaled by their norms."""
    n = problem.n
    hdiag = np.real(np.diag(problem.weight.h))
    minv, detm = gauss_hermite_substitution(_gaussian_exponent(problem).g)
    s, w = scipy.special.roots_hermite(order)
    indices = monomial_indices(n, size)
    scale = np.exp(-0.5 * log_norms_sq(hdiag, indices))
    rest = np.array(list(itertools.product(range(order), repeat=2 * n - 1)), dtype=int)
    t = np.zeros((size, size), dtype=complex)
    for first in range(order):
        pts = np.column_stack([np.full(len(rest), s[first]), s[rest]])
        wts = w[first] * np.prod(w[rest], axis=1)
        tn = pts @ minv.T
        x, xb = tn[:, :n] + 1j * tn[:, n:], tn[:, :n] - 1j * tn[:, n:]
        mx = np.array([np.prod(x ** np.array(alpha), axis=1) for alpha in indices])
        mxb = np.array([np.prod(xb ** np.array(alpha), axis=1) for alpha in indices])
        t += (mx * wts) @ mxb.T
    return detm * t * np.outer(scale, scale)


def reference_section(problem, size):
    """The section's moment recurrence at 50 digits, from the same exponent
    matrix G, entry by entry: Stein's identity in x_l lowers alpha in every
    entry with alpha != 0, and the one in conj(x)_l lowers beta in row 0."""
    mp = pytest.importorskip("mpmath")
    n, indices = problem.n, monomial_indices(problem.n, size)
    with mp.workdps(50):
        g = mp.matrix(_gaussian_exponent(problem).g.tolist())
        ginv = g ** -1
        h = [mp.mpf(float(v)) for v in np.real(np.diag(problem.weight.h))]

        def block(a, b):
            return [[ginv[a * n + l, b * n + i] for i in range(n)] for l in range(n)]

        uu, uv, vu, vv = block(0, 0), block(0, 1), block(1, 0), block(1, 1)
        sxx = [[(uu[l][i] - vv[l][i] + 1j * (uv[l][i] + vu[l][i])) / 2 for i in range(n)]
               for l in range(n)]
        sxxb = [[(uu[l][i] + vv[l][i] + 1j * (vu[l][i] - uv[l][i])) / 2 for i in range(n)]
                for l in range(n)]
        sxbxb = [[(uu[l][i] - vv[l][i] - 1j * (uv[l][i] + vu[l][i])) / 2 for i in range(n)]
                 for l in range(n)]

        def low(alpha, i):
            return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]

        m = {}
        for alpha in indices:
            for beta in indices:
                if not any(alpha + beta):
                    m[alpha, beta] = mp.mpc(1)
                    continue
                acc = 0
                if any(alpha):
                    l = max(i for i, a in enumerate(alpha) if a)
                    p, top = low(alpha, l), alpha[l]
                    for i in range(n):
                        if p[i]:
                            acc += sxx[l][i] * mp.sqrt(2 * h[i] * p[i]) * m[low(p, i), beta]
                        if beta[i]:
                            acc += sxxb[l][i] * mp.sqrt(2 * h[i] * beta[i]) * m[p, low(beta, i)]
                else:
                    l = max(i for i, b in enumerate(beta) if b)
                    p, top = low(beta, l), beta[l]
                    for i in range(n):
                        if p[i]:
                            acc += sxbxb[l][i] * mp.sqrt(2 * h[i] * p[i]) * m[alpha, low(p, i)]
                m[alpha, beta] = mp.sqrt(2 * h[l] / top) * acc
        pref = mp.exp(sum(mp.log(2 * v) for v in h)
                      - sum(mp.log(e) for e in mp.eig(g, left=False, right=False)) / 2)
        return np.array([[complex(m[a, b] * pref) for b in indices] for a in indices])


def section_peak(problem, size):
    truncated_matrix(problem, min(size, 10))  # NumPy's lazy imports
    tracemalloc.start()
    try:
        truncated_matrix(problem, size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTruncatedMatrix:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the moment recurrence loses "
                                           "large sections of some general n = 1 draws")
    def test_no_entry_above_the_operator_norm_at_size_800(self):
        # each entry <T e_k, e_j> pairs unit vectors, so none exceeds
        # ||T|| = 0.9605142834 (the supremum over Gaussians); the size-800
        # section of this compact draw has an entry of modulus 256
        problem = ToeplitzProblem(
            Weight(np.array([[0.40609895]]), np.zeros((1, 1))),
            ComplexQuadraticForm(np.array([[0.23439769 + 0.17348267j]]),
                                 np.array([[0.00588725 - 0.1759301j]]),
                                 np.array([[-0.34491674 - 0.02642121j]])))
        assert np.abs(truncated_matrix(problem, 800).t).max() <= 0.9605142834

    def test_trivial_symbol_is_identity(self):
        top = truncated_matrix(trivial_problem(), 12)
        assert np.max(np.abs(top.t - np.eye(12))) < 1e-12

    def test_diagonal_law(self):
        for lam in (-0.5, 1j, 0.2):
            inst = ModelInstance(1, lam, np.zeros((1, 1)))
            top = truncated_matrix(model_problem(inst), 40)
            expect = inst.gamma ** np.arange(1, 41)
            diag = np.diag(top.t)
            rel = np.abs(diag - expect) / np.abs(expect)
            assert np.max(rel) < 1e-12
            off = top.t - np.diag(diag)
            assert np.max(np.abs(off)) == 0.0

    def test_norm_at_gamma_half(self):
        top = truncated_matrix(scalar_problem(-0.5), 40)
        assert abs(top.spectral_norm() - 0.5) < 1e-12

    def test_refinement_stability(self):
        # each entry depends only on entries of lower indices: refining the
        # basis from N to 2N monomials leaves the leading block's bits alone
        rng = np.random.default_rng(18)
        for problem in (diagonal_levi_problem(rng, 1), separable_problem(rng, 1),
                        scalar_problem(0.1, 0.02), diagonal_levi_problem(rng, 2),
                        separable_problem(rng, 2)):
            for size in (12, 21, 40):
                lead = truncated_matrix(problem, size).t
                assert np.array_equal(truncated_matrix(problem, 2 * size).t[:size, :size], lead)

    def test_first_entry_against_gaussian_determinant(self):
        # <e^q e_0, e_0> = (2 pi)^{-1} integral e^{q - |x|^2/2}, a pure Gaussian:
        # equals det(G)^{-1/2} / 2 for the real-coordinate exponent matrix G
        problem = scalar_problem(0.08 - 0.3j, 0.04)
        top = truncated_matrix(problem, 6)

        def fn(t):
            x = _block_complex(t)
            return 2.0 * problem.weight.value(x) - problem.q.value(x)

        g = quadratic_matrix(fn, 2)
        expect = 1.0 / (2.0 * np.sqrt(np.linalg.det(g)))
        assert top.t[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_parity_selection_rule(self):
        # q couples only monomials of equal degree parity when qxbx is scalar
        top = truncated_matrix(scalar_problem(0.05, 0.03), 10)
        for j in range(10):
            for k in range(10):
                if (j - k) % 2 == 1:
                    assert abs(top.t[j, k]) < 1e-13

    def test_radial_n2_tensor_rule(self):
        # radial q at n=2 is invariant under each x_i -> e^{is} x_i: the
        # entries are gamma^(|alpha| + 2) on the diagonal and 0 off it
        inst = ModelInstance(2, -0.3 + 0.2j, np.zeros((2, 2)))
        top = truncated_matrix(model_problem(inst), 6)
        idx = monomial_indices(2, 6)
        g = inst.gamma
        for j, alpha in enumerate(idx):
            assert top.t[j, j] == pytest.approx(g ** (sum(alpha) + 2), rel=1e-11)
            for k in range(6):
                if k != j:
                    assert abs(top.t[j, k]) < 1e-11

    def test_rejects_pluriharmonic_weight(self):
        w = Weight(np.array([[0.25]]), np.array([[0.05]]))
        with pytest.raises(ValueError, match="pluriharmonic"):
            truncated_matrix(ToeplitzProblem(w, ComplexQuadraticForm.zero(1)), 4)

    @pytest.mark.parametrize("run", [
        lambda p: truncated_matrix(p, 4),
        lambda p: norm_trend(p, [4]),
        lambda p: singular_decay(p, 4),
    ])
    def test_refuses_n_above_two_before_quadrature(self, run):
        with pytest.raises(OracleRefusal, match="n <= 2"):
            run(trivial_problem(3))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("family", ["separable", "general"])
    @pytest.mark.parametrize("seed", range(3))
    def test_section_matches_a_50_digit_recurrence(self, n, family, seed):
        rng = np.random.default_rng([seed, n, 18])
        problem = (separable_problem(rng, n) if family == "separable"
                   else diagonal_levi_problem(rng, n))
        size = 40 if n == 1 else 28
        ref = reference_section(problem, size)
        got = truncated_matrix(problem, size).t
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_section_fails_in_one_error(self):
        # |gamma| = 5/3: the diagonal passes the double range near size 1390
        with pytest.raises(NumericalFailure, match="double range"):
            truncated_matrix(scalar_problem(0.2), 1500)


class TestGalerkinBudget:
    """A section is one complex table and a basis of NumPy index arrays; a
    size whose counted bytes exceed the oracle's budget is refused before
    its basis is listed."""

    @pytest.mark.parametrize("case", ["general", "n2"])
    def test_counted_bytes_are_the_largest_array(self, case):
        # the table dominates the peak, and the count bounds it
        problem = (diagonal_levi_problem(np.random.default_rng(9), 1) if case == "general"
                   else diagonal_levi_problem(np.random.default_rng(9), 2))
        size = 200 if case == "general" else 231
        peak = section_peak(problem, size)
        assert 16 * size * size > peak / 2
        assert peak <= oracle_module._section_bytes(size)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sliced_section_extends_the_whole_one(self):
        problem = diagonal_levi_problem(np.random.default_rng(1), 1)
        whole = truncated_matrix(problem, 200).t
        larger = truncated_matrix(problem, 260).t
        assert np.all(np.isfinite(larger))
        assert np.array_equal(larger[:200, :200], whole)

    @pytest.mark.parametrize("n", [1, 2])
    def test_counted_bytes_bound_the_recurrence(self, n):
        # the basis' index list, then the recurrence's index arrays
        hdiag = np.real(np.diag(separable_problem(np.random.default_rng(5), n).weight.h))
        _MomentRecurrence(monomial_indices(n, 10), hdiag)  # NumPy's lazy imports
        nbasis = 20000
        tracemalloc.start()
        try:
            _MomentRecurrence(monomial_indices(n, nbasis), hdiag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert oracle_module._basis_bytes(nbasis) / 2 < peak
        assert peak <= oracle_module._basis_bytes(nbasis)

    def test_radial_section_stays_far_below_the_budget(self):
        # size 400, past the 176 that NumPy's Gauss-Laguerre rule once
        # allowed, holds a 2.4 MiB table
        size = 400
        peak = section_peak(scalar_problem(-0.3 + 0.2j), size)
        assert peak <= oracle_module._section_bytes(size) < oracle_module._TABLE_MAX_BYTES // 64

    def test_refused_before_the_basis_is_listed(self, monkeypatch):
        def never(*args):
            raise AssertionError("basis listed")

        budget = oracle_module._TABLE_MAX_BYTES
        largest = math.isqrt(budget // 16)
        while oracle_module._section_bytes(largest) > budget:
            largest -= 1
        monkeypatch.setattr(oracle_module, "monomial_indices", never)
        for problem in (scalar_problem(-0.3 + 0.2j), scalar_problem(-0.3, 0.1), trivial_problem(2)):
            for size in (largest + 1, 10 ** 20):
                with pytest.raises(OracleRefusal, match="MiB"):
                    truncated_matrix(problem, size)

    def test_sizes_in_use_are_accepted(self):
        # the CLI's default sizes, the sizes that CI runs, and n = 2 at
        # total degree 20
        for size in (40, 200, 231, 400):
            assert oracle_module._section_bytes(size) <= oracle_module._TABLE_MAX_BYTES


class TestLaguerreLimit:
    """Radial sections past size 176, where the Gauss-Laguerre rule of
    order size + 10 overflowed in NumPy: the moment recurrence has no rule
    to overflow."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_size_is_the_diagonal_law(self):
        size = 400
        for lam, h in ((-0.5, 0.25), (-0.5 + 0.1j, 0.25), (1j, 0.3), (0.02 - 0.3j, 0.2)):
            problem = ToeplitzProblem(Weight(np.array([[h]]), np.zeros((1, 1))),
                                      ComplexQuadraticForm(np.zeros((1, 1)), np.array([[lam]]),
                                                           np.zeros((1, 1))))
            top = truncated_matrix(problem, size).t
            expect = (2.0 * h / (2.0 * h - lam)) ** np.arange(1, size + 1)
            assert np.array_equal(top, np.diag(np.diag(top)))
            assert np.max(np.abs(np.diag(top) - expect) / np.abs(expect)) <= 1e-12


class TestExactOrder:
    """The moment recurrence is exact: it matches an independent
    construction, the tensor Gauss-Hermite rule on the scaled contour,
    which is exact from order d + 1 at basis degree d, and its double."""

    @pytest.mark.parametrize("n,size", [(1, 12), (1, 40), (2, 10), (2, 20), (2, 40)])
    def test_doubling_the_order_changes_nothing(self, n, size):
        rng = np.random.default_rng(100 * n + size)
        degree = max(sum(alpha) for alpha in monomial_indices(n, size))
        for _ in range(3):
            problem = diagonal_levi_problem(rng, n)
            top = truncated_matrix(problem, size).t
            for order in (degree + 1, 2 * degree + 2):
                ref = gauss_hermite_section(problem, size, order)
                assert np.max(np.abs(top - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n,size", [(1, 30), (2, 28)])
    def test_recurrence_monomials_match_powers(self, n, size):
        # x^alpha = x^p x_l with p the parent; lower[i] lists alpha - e_i
        indices = monomial_indices(n, size)
        rec = oracle_module._MomentRecurrence(indices, np.full(n, 0.25))
        eye = np.eye(n, dtype=int)
        for j, alpha in enumerate(indices[1:], 1):
            l, p = rec.last[j], rec.parent[j]
            assert alpha[l] > 0 and not any(alpha[l + 1:])
            assert tuple(np.add(indices[p], eye[l])) == alpha
            for i in range(n):
                if alpha[i]:
                    assert tuple(np.add(indices[rec.lower[i, j]], eye[i])) == alpha

    @pytest.mark.parametrize("n,size", [(1, 64), (2, 45)])
    def test_log_norms_are_the_scalar_formula(self, n, size):
        # the factors sqrt(2h_l / alpha_l) along the chain of parents give
        # ||1|| / ||x^alpha||, and sqrt(2h_i alpha_i) the normalized d_i
        hdiag = np.random.default_rng(n).uniform(0.1, 0.5, n)
        indices = monomial_indices(n, size)
        rec = oracle_module._MomentRecurrence(indices, hdiag)
        ratio = np.ones(size)
        for j in range(1, size):
            ratio[j] = ratio[rec.parent[j]] * rec.step[j]
        log_norms = log_norms_sq(hdiag, indices)
        assert np.max(np.abs(np.log(ratio) - 0.5 * (log_norms[0] - log_norms))) <= 1e-13 * size
        a = np.array(indices).T
        assert np.array_equal(rec.raised, np.sqrt(2.0 * hdiag)[:, None] * np.sqrt(a))

    def test_section_peak_memory(self):
        # the size-40 table is 25 KiB
        assert section_peak(scalar_problem(-0.3, 0.1), 40) <= oracle_module._section_bytes(40)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_top_degree_rows_stay_finite(self):
        # size 200 at n = 1: |x|^199 at the far nodes of a quadrature rule
        # overflowed; the recurrence's entries stay near the entries' size
        problem = diagonal_levi_problem(np.random.default_rng(1), 1)
        top = truncated_matrix(problem, 200).t
        assert np.all(np.isfinite(top))
        lead = truncated_matrix(problem, 100).t
        assert np.max(np.abs(top[:100, :100] - lead)) <= 1e-12 * np.max(np.abs(lead))
        norms = norm_trend(problem, (100, 200))
        assert np.all(np.isfinite(norms)) and norms[1] >= norms[0]


class TestClosedFormExponents:
    """The oracle's exponent matrices in block coordinates, against the
    evaluation-based reference."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 2**32 - 1), st.booleans())
    def test_gaussian_exponent_matrix(self, n, seed, pluriharmonic):
        problem = random_admissible_problem(np.random.default_rng(seed), n, pluriharmonic)
        weight, q = problem.weight, problem.q
        ref = quadratic_matrix(
            lambda t: 2.0 * weight.value(_block_complex(t)) - q.value(_block_complex(t)),
            2 * n,
        )
        if np.linalg.eigvalsh(np.real(ref))[0] <= 0.0:
            # a pluriharmonic part can make e^{-2 Phi + q} non-integrable
            # on an admissible problem; the builder must refuse it
            assert pluriharmonic
            with pytest.raises(QuadratureDivergence):
                _gaussian_exponent(problem)
            return
        got = _gaussian_exponent(problem).g
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 2**32 - 1))
    def test_weyl_real_exponent(self, n, seed):
        q = random_admissible_problem(np.random.default_rng(seed), n).q
        ref = quadratic_matrix(lambda t: q.value(_block_complex(t)).real, 2 * n)
        got = _block_order(real_part_matrix(q))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestTrendAndDecay:
    def test_trivial_symbol_all_ones(self):
        norms = norm_trend(trivial_problem(), (5, 10, 20))
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert is_plateau(norms)

    def test_growth_for_expanding_gamma(self):
        inst = ModelInstance(1, 0.2, np.zeros((1, 1)))
        norms = norm_trend(model_problem(inst), (10, 20, 40))
        # diagonal law: ||T_N|| = |gamma|^N, so log-norm slope is log|gamma|
        slope = np.polyfit([10, 20, 40], np.log(norms), 1)[0]
        assert slope == pytest.approx(np.log(abs(inst.gamma)), rel=1e-6)
        assert not is_plateau(norms)

    def test_contracting_gamma_plateau(self):
        inst = ModelInstance(1, 1j, np.zeros((1, 1)))
        norms = norm_trend(model_problem(inst), (10, 20, 40))
        assert np.allclose(norms, abs(inst.gamma), atol=1e-12)
        assert is_plateau(norms)

    def test_monotone_nondecreasing(self):
        problem = scalar_problem(0.05, 0.04)
        norms = norm_trend(problem, (4, 8, 16, 32))
        for a, b in zip(norms, norms[1:]):
            assert b >= a - 1e-12

    def test_decay_ratios(self):
        for lam, expect in ((-0.5, 0.5), (1j, 5 ** -0.5)):
            est = singular_decay(scalar_problem(lam), 40)
            assert abs(est.ratio - expect) <= 0.05 * expect

    def test_no_decay_for_trivial_symbol(self):
        est = singular_decay(trivial_problem(), 40)
        assert abs(est.ratio - 1.0) <= 0.01

    @pytest.mark.parametrize("n", [1, 2])
    def test_ratio_is_reproducible_under_rounding(self, monkeypatch, n):
        # the fit keeps only singular values that a change of the section at
        # 1e-15 of each entry leaves about ten digits
        rng = np.random.default_rng([n, 43])
        exact = oracle_module.truncated_matrix

        def perturbed(problem, size):
            top = exact(problem, size)
            noise = rng.standard_normal(top.t.shape) + 1j * rng.standard_normal(top.t.shape)
            top.t *= 1.0 + 1e-15 * noise
            return top

        for _ in range(6):
            problem = diagonal_levi_problem(rng, n)
            ratio = singular_decay(problem, 40).ratio
            monkeypatch.setattr(oracle_module, "truncated_matrix", perturbed)
            for _ in range(3):
                assert abs(singular_decay(problem, 40).ratio - ratio) <= 1e-12
            monkeypatch.setattr(oracle_module, "truncated_matrix", exact)


class TestNumericWeyl:
    def test_trivial_symbol(self):
        [value] = weyl_convolutions(trivial_problem(), [[0.7 + 0.2j]])
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_mehler_values(self):
        p = scalar_problem(-0.5)
        assert weyl_convolutions(p, [[0.0]])[0] == pytest.approx(2 / 3, abs=1e-10)
        assert weyl_convolutions(p, [[1.0]])[0] == pytest.approx((2 / 3) * np.exp(-1 / 3), abs=1e-9)

    def test_never_diverges_on_admissible_input(self):
        # admissibility implies Re q < Phi_herm < the convolution threshold
        rng = np.random.default_rng(0)
        for _ in range(20):
            problem = random_admissible_problem(rng, 1)
            try:
                weyl_convolutions(problem, [[0.3 - 0.1j]])[0]
            except NotAbsolutelyConvergent as exc:  # pragma: no cover
                pytest.fail(f"convolution unexpectedly divergent: {exc}")

    def test_matches_closed_form_n2(self):
        inst = ModelInstance(2, -0.2 + 0.1j, 0.02 * np.eye(2))
        problem = model_problem(inst)
        ws = weyl_symbol(problem)
        x = np.array([0.5 - 0.3j, 0.2j])
        got = weyl_convolutions(problem, [x])[0]
        assert abs(got - ws.evaluate(x)) / abs(ws.evaluate(x)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 2.0))
    def test_general_draws_match_closed_form(self, n, seed, pluriharmonic, radius):
        # non-diagonal H (n = 2), a pluriharmonic part or none, a general q
        rng = np.random.default_rng(seed)
        problem = random_admissible_problem(rng, n, pluriharmonic, levi_range=(0.2, 1.0))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = radius * u / np.linalg.norm(u)
        ref = weyl_symbol(problem).evaluate(x)
        got = weyl_convolutions(problem, [x])[0]
        assert abs(got - ref) <= 1e-12 * abs(ref)


class TestWeylEvidence:
    """weyl_evidence sets the problem up once for its three points; each
    of its numbers is still the convolution's at that point alone."""

    @pytest.mark.parametrize("case", ["separable n1", "general n1", "general n2", "classify_n2"])
    def test_values_are_the_one_point_convolution(self, case):
        from bargtop.io import load_problem

        if case == "classify_n2":
            problem = load_problem(str(Path(__file__).parent / "data" / "classify_n2.yaml"))
        elif case.startswith("separable"):
            problem = separable_problem(np.random.default_rng(7), 1)
        else:
            n = int(case[-1])
            problem = random_admissible_problem(np.random.default_rng(n), n, levi_range=(0.2, 1.0))
        evidence = weyl_evidence(problem)
        assert set(evidence) == {"experiment", "points", "max_rel_error"}
        for row in evidence["points"]:
            x = np.array([complex(*v) for v in row["x"]])
            assert complex(*row["numeric"]) == weyl_convolutions(problem, [x])[0]
        assert evidence["max_rel_error"] <= 1e-12

    def test_points_share_one_setup(self):
        problem = separable_problem(np.random.default_rng(8), 2)
        points = [np.array([0.5, -1j]), np.array([2.0, 0.0]), np.zeros(2)]
        values = weyl_convolutions(problem, points)
        assert values == [weyl_convolutions(problem, [x])[0] for x in points]


class TestEveryDimension:
    """The Weyl convolution and both coherent squares complete squares in
    2n real variables and list no basis, so they hold at the dimensions
    classify runs, on general Levi forms."""

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_general_draws_match_the_closed_forms(self, n):
        # raw draws are mostly unbounded; damped ones mostly compact
        rng = np.random.default_rng([n, 28])
        verdicts = set()
        for damped in (False, True):
            for _ in range(20):
                problem = random_admissible_problem(rng, n, damped=damped)
                assert weyl_evidence(problem)["max_rel_error"] <= 1e-12
                evidence = coherent_evidence(problem)
                pred = evidence["predicted_slope"]
                assert abs(evidence["slope"] - pred) <= 1e-9 * max(1.0, abs(pred))
                verdicts.add(classify_operator(problem).verdict)
        assert {VerdictClass.COMPACT, VerdictClass.UNBOUNDED} <= verdicts


def image_coefficients(problem, w, nbasis):
    """<T k_w, e_alpha> on the first ``nbasis`` monomials, read off the
    closed-form image T k_w(z) = exp(z.Mz + z.c + d): its Taylor
    coefficients obey alpha_l f_alpha = c_l f_p + 2 sum_i M_li f_{p - e_i}
    with p = alpha - e_l, and <f, e_alpha> = f_alpha ||x^alpha||."""
    m, [(_, c, d)] = _coherent_images(problem, (w,))
    n, hdiag = problem.n, np.real(np.diag(problem.weight.h))
    indices = monomial_indices(n, nbasis)
    pos = {alpha: j for j, alpha in enumerate(indices)}
    b = np.zeros(nbasis, dtype=complex)
    b[0] = np.exp(d + 0.5 * np.sum(np.log(math.pi / (2.0 * hdiag))))  # e^d ||1||
    for j, alpha in enumerate(indices[1:], 1):
        l = max(i for i, a in enumerate(alpha) if a)
        p = alpha[:l] + (alpha[l] - 1,) + alpha[l + 1:]
        acc = c[l] * b[pos[p]]
        for i, pi in enumerate(p):
            if pi:
                low = p[:i] + (pi - 1,) + p[i + 1:]
                acc += 2.0 * m[l, i] * math.sqrt(pi / (2.0 * hdiag[i])) * b[pos[low]]
        b[j] = acc / math.sqrt(2.0 * hdiag[l] * alpha[l])
    return b


def default_basis(problem, w):
    """40 + 6 Phi(w) monomials: at n = 1 the coherent state's mass, near
    degree 2 Phi(w), is well inside."""
    return 40 + int(6.0 * problem.weight.value(w))


class TestCoherentNorms:
    def test_trivial_symbol_normalized(self):
        for r in (0.5, 1.0, 2.0, 4.0):
            got = coherent_norms(trivial_problem(), [[r]])[0]
            assert got == pytest.approx(1.0, abs=1e-10)

    def test_trivial_symbol_n2(self):
        got = coherent_norms(trivial_problem(2), [[1.0, 0.5j]])[0]
        assert got == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("lam,expect", [(-0.5, -0.1875), (0.2, (1 / 0.36 - 1) / 4)])
    def test_log_norm_slopes(self, lam, expect):
        problem = scalar_problem(lam)
        radii = np.array([1.0, 2.0, 4.0])
        logs = np.log(coherent_norms(problem, [[r] for r in radii]))
        slope = np.polyfit(radii ** 2, logs, 1)[0]
        assert abs(slope - expect) <= 1e-13 * abs(expect)

    @pytest.mark.parametrize("family,n", [("separable", 1), ("separable", 2), ("general", 1),
                                          ("model", 1)])
    def test_slope_log_norms_are_the_one_point_norms(self, family, n):
        # one setup for all three radii: only the linear terms are taken
        # at each point
        rng = np.random.default_rng(11)
        problem = (separable_problem(rng, n) if family == "separable"
                   else diagonal_levi_problem(rng, n) if family == "general"
                   else scalar_problem(-0.4 + 0.1j))
        logs, _ = coherent_slope(problem, COHERENT_RADII, coherent_scale(problem))
        e1 = np.eye(problem.n, dtype=complex)[0]
        one_point = [coherent_norms(problem, [r * e1])[0] for r in COHERENT_RADII]
        assert logs == [float(np.log(norm)) for norm in one_point]

    def test_norms_at_general_points_are_the_one_point_norms(self):
        problem = diagonal_levi_problem(np.random.default_rng(12), 2)
        points = [np.array([0.3, 1j]), np.array([-1.0, 0.5])]
        got = coherent_norms(problem, points)
        assert got == [coherent_norms(problem, [w])[0] for w in points]

    def test_slope_matches_the_prediction_on_general_n2_draws(self):
        # the Bergman growth exponent is a different construction, at the
        # normal form
        rng = np.random.default_rng(11)
        for _ in range(30):
            evidence = coherent_evidence(diagonal_levi_problem(rng, 2))
            pred = evidence["predicted_slope"]
            assert abs(evidence["slope"] - pred) <= 1e-9 * abs(pred)

    def test_slope_of_a_levi_form_far_below_unit_scale(self, tmp_path, capsys):
        # H = 1e-200 I: at the fixed radii 1, 2 and 4 every log-norm was
        # log(1/3) to rounding, and the fit gave a slope of -2.1e-17
        from bargtop.cli import main

        path = tmp_path / "tiny.yaml"
        path.write_text("n: 2\nphi0:\n  hermitian: [[[1.0e-200, 0.0], [0.0, 0.0]], "
                        "[[0.0, 0.0], [1.0e-200, 0.0]]]\nq:\n  xbarx: [[[-1.0e-200, 0.0], "
                        "[0.0, 0.0]], [[0.0, 0.0], [-2.0e-200, 0.0]]]\n")
        assert main(["oracle", str(path), "--experiment", "coherent"]) == 0
        evidence = json.loads(capsys.readouterr().out)
        pred = evidence["predicted_slope"]
        assert pred == pytest.approx(-5.0e-201 / 0.9, rel=1e-12)
        assert abs(evidence["slope"] - pred) <= 1e-12 * abs(pred)

    @pytest.mark.parametrize("dilation", [1e-150, 1e-20, 1e20, 1e150])
    def test_slope_is_scale_free(self, dilation):
        # scaling H and q by c scales the slope in r^2 by c; the radii
        # follow by a power of two, so the fit keeps its accuracy
        rng = np.random.default_rng(11)
        base = diagonal_levi_problem(rng, 2)
        w, q = base.weight, base.q
        problem = ToeplitzProblem(Weight(dilation * w.h, w.p),
                                  ComplexQuadraticForm(dilation * q.qxx, dilation * q.qxbx,
                                                       dilation * q.qxbxb))
        evidence = coherent_evidence(problem)
        pred = evidence["predicted_slope"]
        assert pred == pytest.approx(dilation * coherent_evidence(base)["predicted_slope"], rel=1e-9)
        assert abs(evidence["slope"] - pred) <= 1e-9 * abs(pred)

    def test_unit_scale_keeps_the_fixed_radii(self):
        problem = diagonal_levi_problem(np.random.default_rng(11), 2)
        assert coherent_scale(problem) == 1.0
        assert coherent_evidence(problem)["radii"] == list(COHERENT_RADII)

    @staticmethod
    def explicit_coefficients(problem, w, nbasis, order):
        """The tensor grid and the monomial matrix built out in full."""
        n, h = problem.n, problem.weight.h
        hdiag = np.real(np.diag(h))
        minv, detm = gauss_hermite_substitution(_gaussian_exponent(problem).g)
        s, wts = scipy.special.roots_hermite(order)
        pts = np.array(list(itertools.product(s, repeat=2 * n)))
        weights = np.prod(list(itertools.product(wts, repeat=2 * n)), axis=1)
        t = pts @ minv.T
        x, xb = t[:, :n] + 1j * t[:, n:], t[:, :n] - 1j * t[:, n:]
        kernel = np.exp(2.0 * (x @ h.T) @ np.conj(w))
        indices = monomial_indices(n, nbasis)
        log_norms = log_norms_sq(hdiag, indices)
        mono = np.array([np.prod(xb ** np.array(alpha), axis=1) * math.exp(-0.5 * ln)
                         for alpha, ln in zip(indices, log_norms)])
        scale = math.exp(0.5 * np.sum(np.log(2.0 * hdiag / math.pi)) - problem.weight.value(w))
        return mono @ (weights * kernel) * detm * scale

    @pytest.mark.parametrize("case", ["n1", "n2"])
    def test_coefficients_match_the_explicit_grid(self, case):
        # the closed-form image against a high order on the unshifted
        # Gauss-Hermite grid
        if case == "n1":
            problem, w, nbasis, order = scalar_problem(-0.3 + 0.1j, 0.08), np.array([1.5 - 0.5j]), 12, 30
        else:
            problem = diagonal_levi_problem(np.random.default_rng(3), 2)
            w, nbasis, order = np.array([0.8, 0.3j]), 10, 16
        ref = self.explicit_coefficients(problem, w, nbasis, order)
        got = image_coefficients(problem, w, nbasis)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def reference_coefficients(problem, w, nbasis):
        """The basis coefficients <e^q k_w, e_alpha> by the Gaussian moment
        recurrence at 50 digits, from the same exponent matrix G."""
        mp = pytest.importorskip("mpmath")
        n = problem.n
        with mp.workdps(50):
            g = mp.matrix(_gaussian_exponent(problem).g.tolist())
            ginv = g ** -1
            h = [mp.mpf(float(v)) for v in np.real(np.diag(problem.weight.h))]
            hw = [h[i] * mp.conj(mp.mpc(complex(w[i]))) for i in range(n)]
            lin = mp.matrix([2 * v for v in hw] + [2j * v for v in hw])
            mean = ginv * lin / 2
            mu = [mean[i] - 1j * mean[n + i] for i in range(n)]
            cov = [[(ginv[l, i] - ginv[n + l, n + i] - 1j * (ginv[l, n + i] + ginv[n + l, i])) / 2
                    for i in range(n)] for l in range(n)]
            m = {(0,) * n: mp.mpc(1)}
            for alpha in monomial_indices(n, nbasis)[1:]:
                l = max(i for i, a in enumerate(alpha) if a)
                p = alpha[:l] + (alpha[l] - 1,) + alpha[l + 1:]
                acc = mu[l] * m[p]
                for i, pi in enumerate(p):
                    if pi:
                        acc += cov[l][i] * mp.sqrt(2 * h[i] * pi) * m[p[:i] + (pi - 1,) + p[i + 1:]]
                m[alpha] = mp.sqrt(2 * h[l] / alpha[l]) * acc
            phi = sum(h[i] * abs(mp.mpc(complex(w[i]))) ** 2 for i in range(n))
            log_pref = (sum(mp.log(2 * v) for v in h)
                        - sum(mp.log(e) for e in mp.eig(g, left=False, right=False)) / 2
                        + sum(lin[i] * mean[i] for i in range(2 * n)) / 2 - phi)
            pref = mp.exp(log_pref)
            return np.array([complex(v * pref) for v in m.values()])

    @staticmethod
    def draw(n, family, seed):
        """A problem and a point at |w| = 4 of the 50-digit tests."""
        rng = np.random.default_rng([seed, n])
        problem = (separable_problem(rng, n) if family == "separable"
                   else diagonal_levi_problem(rng, n))
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return problem, w * 4.0 / np.linalg.norm(w)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("family", ["separable", "general"])
    @pytest.mark.parametrize("seed", range(3))
    def test_coefficients_match_a_50_digit_recurrence(self, n, family, seed):
        # the first completed square, T k_w(z) = exp(z.Mz + z.c + d), has the
        # basis coefficients of the image to a few ulps of the largest
        problem, w = self.draw(n, family, seed)
        nbasis = default_basis(problem, w)
        ref = self.reference_coefficients(problem, w, nbasis)
        got = image_coefficients(problem, w, nbasis)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("family", ["separable", "general"])
    @pytest.mark.parametrize("seed", range(3))
    def test_norm_is_the_converged_basis_sum(self, family, seed):
        # at n = 1 the 50-digit basis sum has converged at 8 times
        # default_basis; the second completed square is its limit
        problem, w = self.draw(1, family, seed)
        coeffs = self.reference_coefficients(problem, w, 8 * default_basis(problem, w))
        ref = 0.5 * math.log(np.sum(np.abs(coeffs) ** 2))
        assert abs(math.log(coherent_norms(problem, [w])[0]) - ref) <= 1e-12

    def test_norm_peak_memory(self):
        problem = scalar_problem(-0.4 + 0.1j)
        coherent_norms(problem, [[4.0]])  # NumPy's lazy imports
        tracemalloc.start()
        try:
            coherent_norms(problem, [[4.0]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few 2 x 2 matrices and their temporaries
        assert peak < 4 * (1 << 20)

    def test_weak_convergence_of_coherent_states(self):
        # fixed basis element against k_w along a ray: coefficients vanish
        problem = trivial_problem()
        mags = []
        for r in (2.0, 5.0, 8.0):
            coeffs = image_coefficients(problem, [r], 4)
            mags.append(np.abs(coeffs))
        for k in range(4):
            seq = [m[k] for m in mags]
            assert seq[1] < seq[0] and seq[2] < seq[1]
            assert seq[-1] < 1e-4


class TestGaussianIntegral:
    """The one completed square behind the Weyl convolution and the
    coherent norms."""

    def test_one_dimensional_integral(self):
        # int e^{-a t^2 + l t} dt = sqrt(pi / a) e^{l^2 / 4a}, over sqrt(pi)
        a, lin = 0.7 - 0.4j, np.array([0.3 + 1.1j])
        got = _GaussianIntegral(np.array([[a]]), "test").log(lin)
        assert abs(got - (-0.5 * np.log(a) + lin[0] ** 2 / (4.0 * a))) <= 1e-15

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_far_from_unit_scale(self, scale):
        # det(G) = scale^4 is outside the double range at either end
        g = scale * np.diag([1.0, 2.0, 3.0, 4.0])
        got = _GaussianIntegral(g, "test").log_base
        assert abs(got - (-2.0 * np.log(scale) - 0.5 * np.log(24.0))) <= 1e-13 * abs(got)

    @pytest.mark.parametrize("divergence", [QuadratureDivergence, NotAbsolutelyConvergent])
    def test_indefinite_real_part_is_refused(self, divergence):
        with pytest.raises(divergence, match=r"^the test integrand is not integrable \(min Re"):
            _GaussianIntegral(np.diag([1.0, -1e-3 + 1j]), "the test integrand", divergence)

    def test_non_finite_matrix_is_refused(self):
        with pytest.raises(NumericalFailure, match="^the test integrand leaves the double range"):
            _GaussianIntegral(np.diag([1.0, np.inf]), "the test integrand")


class TestLapackRoute:
    """The oracle reaches LAPACK through bargtop._lapack, whose entries run
    NumPy's linalg gufuncs; with every entry rebound to its np.linalg
    fallback the experiments give the same bytes."""

    FALLBACKS = {
        "eigvalsh": np.linalg.eigvalsh,
        "svdvals": lambda a: np.linalg.svd(a, compute_uv=False),
        "inv": np.linalg.inv,
        "solve": np.linalg.solve,
        "cholesky": np.linalg.cholesky,
        "det": np.linalg.det,
        "slogdet": np.linalg.slogdet,
        "eigvals": np.linalg.eigvals,
    }

    @staticmethod
    def experiments(seed):
        """Sections at n = 1 and 2, the closed forms at n = 4, as bytes."""
        rng = np.random.default_rng([seed, 30])
        out = []
        for n in (1, 2):
            problem = diagonal_levi_problem(rng, n)
            decay = singular_decay(problem, 40)
            out += [norm_trend(problem, (10, 20, 40)), decay.singular_values, [decay.ratio]]
        problem = random_admissible_problem(rng, 4)
        e = np.eye(4, dtype=complex)
        points = [0.0 * e[0], e[0], 0.5 * e[1] - 1.5j * e[3]]
        out += [weyl_convolutions(problem, points), coherent_norms(problem, points)]
        return [np.asarray(values).tobytes() for values in out]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_bytes_through_np_linalg(self, seed, monkeypatch):
        from bargtop import _lapack

        direct = self.experiments(seed)
        called = set()
        for name, fallback in self.FALLBACKS.items():
            def counted(*args, name=name, fallback=fallback):
                called.add(name)
                return fallback(*args)
            monkeypatch.setattr(_lapack, name,
                                _lapack._bound(("no_such_gufunc",), "d->d", "D->D", counted))
        assert self.experiments(seed) == direct
        # the oracle's own calls went through the rebound entries
        assert {"eigvalsh", "svdvals", "inv", "eigvals", "slogdet"} <= called


class TestVerdictConsistency:
    def test_oracle_agrees_with_certificates(self):
        cases = [
            (-0.5, VerdictClass.COMPACT),
            (1j, VerdictClass.COMPACT),
            (0.2, VerdictClass.UNBOUNDED),
            (0.0, VerdictClass.BOUNDED_NOT_COMPACT),
        ]
        for lam, expect in cases:
            problem = scalar_problem(lam)
            assert classify_operator(problem).verdict is expect
            norms = norm_trend(problem, (10, 20, 40))
            plateau = is_plateau(norms)
            if expect is VerdictClass.UNBOUNDED:
                assert not plateau
            else:
                assert plateau
            if expect is VerdictClass.COMPACT:
                inst = ModelInstance(1, lam, np.zeros((1, 1)))
                assert singular_decay(problem, 40).ratio < 0.99
