import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import assume, given, settings, strategies as st

import bargtop.oracle as oracle_module
from bargtop.errors import (
    NotAbsolutelyConvergent, NumericalFailure, OracleRefusal, QuadratureDivergence,
)
from bargtop.forms import ComplexQuadraticForm, Weight, quadratic_matrix, real_part_matrix
from bargtop.model import ModelInstance, model_problem
from bargtop.oracle import (
    _WEYL_RULE_TOL,
    _block_order,
    _coherent_coefficients,
    _gaussian_exponent_matrix,
    _hermite_log_rule,
    _hermite_order,
    _log_monomial_norms_sq,
    _monomials,
    _substitution,
    is_plateau,
    monomial_indices,
    norm_trend,
    numeric_coherent_norm,
    numeric_weyl,
    singular_decay,
    truncated_matrix,
    weyl_convolution,
)
from bargtop.toeplitz import ToeplitzProblem, VerdictClass, classify_operator
from bargtop.verify import random_admissible_problem
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


class TestTruncatedMatrix:
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
        problem = scalar_problem(0.1, 0.02)
        t1 = truncated_matrix(problem, 12)
        t2 = truncated_matrix(problem, 12, order=2 * t1.spec.order)
        drift = np.max(np.abs(t1.t - t2.t)) / max(1.0, np.max(np.abs(t1.t)))
        assert drift < 1e-8

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
        # radial q at n=2 goes through the tensor rule; entries are
        # gamma^(|alpha| + 2) on the diagonal
        inst = ModelInstance(2, -0.3 + 0.2j, np.zeros((2, 2)))
        top = truncated_matrix(model_problem(inst), 6, order=24)
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
        lambda p: numeric_weyl(p, np.zeros(3)),
        lambda p: numeric_coherent_norm(p, np.ones(3)),
    ])
    def test_refuses_n_above_two_before_quadrature(self, run):
        with pytest.raises(OracleRefusal, match="n <= 2"):
            run(trivial_problem(3))


class TestGalerkinBudget:
    """A section whose largest array exceeds the oracle's byte budget is
    refused before its basis is listed."""

    @pytest.mark.parametrize("case", ["general", "n2", "n2 chunked"])
    def test_counted_bytes_are_the_largest_array(self, monkeypatch, case):
        seen = []
        monomials, chunks = oracle_module._monomials, oracle_module._tensor_chunks

        def record_monomials(*args):
            rows = monomials(*args)
            seen.append(rows.nbytes)
            return rows

        def record_chunks(*args):
            for pts, wts in chunks(*args):
                seen.append(16 * pts.size)  # the points mapped by G^{-1/2} are complex
                yield pts, wts

        monkeypatch.setattr(oracle_module, "_monomials", record_monomials)
        monkeypatch.setattr(oracle_module, "_tensor_chunks", record_chunks)
        if case == "n2 chunked":
            monkeypatch.setattr(oracle_module, "_MAX_TENSOR_POINTS", 100)
        problem = (scalar_problem(-0.3, 0.1) if case == "general"
                   else diagonal_levi_problem(np.random.default_rng(9), 2))
        size = 12
        top = truncated_matrix(problem, size)
        seen.append(top.t.nbytes)
        order = max(sum(alpha) for alpha in top.indices) + 1
        assert oracle_module._basis_degree(problem.n, size) + 1 == order
        assert oracle_module._galerkin_bytes(problem, size, order) == max(seen)

    def test_radial_section_stays_far_below_the_budget(self, monkeypatch):
        # the Gauss-Laguerre order, not the byte budget, bounds a radial
        # section: at the largest admitted size it allocates under 1 MiB
        def never(*args):
            raise AssertionError("byte budget consulted")

        problem = scalar_problem(-0.3 + 0.2j)
        size = oracle_module._LAGUERRE_MAX_ORDER - 10
        truncated_matrix(problem, size)  # SciPy and NumPy's lazy imports
        monkeypatch.setattr(oracle_module, "_galerkin_bytes", never)
        tracemalloc.start()
        try:
            truncated_matrix(problem, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_refused_before_the_basis_is_listed(self, monkeypatch):
        def never(*args):
            raise AssertionError("basis listed")

        monkeypatch.setattr(oracle_module, "monomial_indices", never)
        for problem, message in ((scalar_problem(-0.3 + 0.2j), "Gauss-Laguerre"),
                                 (scalar_problem(-0.3, 0.1), "MiB"),
                                 (trivial_problem(2), "MiB")):
            with pytest.raises(OracleRefusal, match=message):
                truncated_matrix(problem, 10 ** 20)

    def test_sizes_in_use_are_accepted(self):
        # size 40 at the default order and at its double, as the refinement
        # checks run it
        for problem in (scalar_problem(-0.3 + 0.2j), scalar_problem(-0.3, 0.1),
                        trivial_problem(2)):
            order = oracle_module._basis_degree(problem.n, 40) + 1
            for rule in (order, 2 * order):
                assert oracle_module._galerkin_bytes(problem, 40, rule) <= (
                    oracle_module._GALERKIN_MAX_BYTES)


class TestLaguerreLimit:
    """The radial path's Gauss-Laguerre rule has order size + 10; an order
    whose rule overflows is refused before the rule is computed."""

    def test_largest_order_is_finite(self):
        s, w = np.polynomial.laguerre.laggauss(oracle_module._LAGUERRE_MAX_ORDER)
        assert np.all(np.isfinite(s)) and np.all(np.isfinite(w)) and np.all(w >= 0.0)

    @pytest.mark.parametrize("size,order", [(177, None), (180, None), (10 ** 6, None), (40, 187)])
    def test_refused_before_the_rule_runs(self, monkeypatch, size, order):
        def never(*args):
            raise AssertionError("rule computed")

        monkeypatch.setattr(np.polynomial.laguerre, "laggauss", never)
        with pytest.raises(OracleRefusal):
            truncated_matrix(scalar_problem(-0.5 + 0.1j), size, order=order)

    def test_largest_size_is_the_diagonal_law(self):
        # lam = -1/2 at H = 1/4: the entries are gamma^{k+1}, gamma = 1/2
        size = oracle_module._LAGUERRE_MAX_ORDER - 10
        top = truncated_matrix(scalar_problem(-0.5), size)
        assert top.spec.order == oracle_module._LAGUERRE_MAX_ORDER
        expect = 0.5 ** np.arange(1, size + 1)
        assert np.max(np.abs(np.diag(top.t) - expect) / expect) < 1e-10


class TestExactOrder:
    """The default Galerkin order is the basis degree plus one: the Gauss
    rule is then exact for every entry, so doubling it changes nothing
    beyond rounding."""

    @pytest.mark.parametrize("n,size", [(1, 12), (1, 40), (2, 10), (2, 20), (2, 40)])
    def test_doubling_the_order_changes_nothing(self, n, size):
        rng = np.random.default_rng(100 * n + size)
        for _ in range(3):
            problem = diagonal_levi_problem(rng, n)
            top = truncated_matrix(problem, size)
            degree = max(sum(alpha) for alpha in monomial_indices(n, size))
            assert top.spec.order == degree + 1
            double = truncated_matrix(problem, size, order=2 * top.spec.order)
            scale = np.max(np.abs(double.t))
            assert np.max(np.abs(top.t - double.t)) <= 1e-12 * scale

    @pytest.mark.parametrize("n,size", [(1, 30), (2, 28)])
    def test_recurrence_monomials_match_powers(self, n, size):
        rng = np.random.default_rng(7)
        points = 2.0 * (rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n)))
        indices = monomial_indices(n, size)
        log_norms = _log_monomial_norms_sq(rng.uniform(0.1, 0.5, n), indices)
        ref = np.empty((size, points.shape[0]), dtype=complex)
        for j, alpha in enumerate(indices):
            vals = np.ones(points.shape[0], dtype=complex)
            for i, a in enumerate(alpha):
                vals = vals * points[:, i] ** a
            ref[j] = vals * math.exp(-0.5 * log_norms[j])
        got = _monomials(points, indices, log_norms)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    @pytest.mark.parametrize("n,size", [(1, 64), (2, 45)])
    def test_log_norms_are_the_scalar_formula(self, n, size):
        hdiag = np.random.default_rng(n).uniform(0.1, 0.5, n)
        indices = monomial_indices(n, size)
        ref = np.array([
            sum(math.log(math.pi) + scipy.special.gammaln(a + 1.0) - (a + 1.0) * math.log(2.0 * h)
                for a, h in zip(alpha, hdiag))
            for alpha in indices
        ])
        assert np.array_equal(_log_monomial_norms_sq(hdiag, indices), ref)

    def test_section_peak_memory(self):
        problem = scalar_problem(-0.3, 0.1)
        truncated_matrix(problem, 40)  # SciPy and NumPy's lazy imports
        tracemalloc.start()
        try:
            truncated_matrix(problem, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sqrt(w)-scaled monomial table at x and conj(x), (40, 2 * 41^2) complex
        assert peak < 2.5 * (1 << 20)


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
                _gaussian_exponent_matrix(problem)
            return
        got = _gaussian_exponent_matrix(problem)
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


class TestNumericWeyl:
    def test_trivial_symbol(self):
        assert numeric_weyl(trivial_problem(), [0.7 + 0.2j]) == pytest.approx(1.0, abs=1e-10)

    def test_mehler_values(self):
        p = scalar_problem(-0.5)
        assert numeric_weyl(p, [0.0]) == pytest.approx(2 / 3, abs=1e-10)
        assert numeric_weyl(p, [1.0]) == pytest.approx((2 / 3) * np.exp(-1 / 3), abs=1e-9)

    def test_never_diverges_on_admissible_input(self):
        # admissibility implies Re q < Phi_herm < the convolution threshold
        rng = np.random.default_rng(0)
        for _ in range(20):
            problem = random_admissible_problem(rng, 1)
            try:
                numeric_weyl(problem, [0.3 - 0.1j], order=20)
            except NotAbsolutelyConvergent as exc:  # pragma: no cover
                pytest.fail(f"convolution unexpectedly divergent: {exc}")

    def test_matches_closed_form_n2(self):
        inst = ModelInstance(2, -0.2 + 0.1j, 0.02 * np.eye(2))
        problem = model_problem(inst)
        ws = weyl_symbol(problem)
        x = np.array([0.5 - 0.3j, 0.2j])
        got = numeric_weyl(problem, x, order=40)
        assert abs(got - ws.evaluate(x)) / abs(ws.evaluate(x)) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 2.0))
    def test_general_draws_match_closed_form(self, n, seed, pluriharmonic, radius):
        # non-diagonal H (n = 2), a pluriharmonic part or none, a general q
        rng = np.random.default_rng(seed)
        problem = random_admissible_problem(rng, n, pluriharmonic, levi_range=(0.2, 1.0))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = radius * u / np.linalg.norm(u)
        conv = weyl_convolution(problem, x)
        # about 1 draw in 5000 has |alpha| > 60, where rounding in the rule
        # nears 1e-12; TestHermiteRule covers that range on its own
        assume(np.max(np.abs(conv.alpha)) <= 60.0)
        ref = weyl_symbol(problem).evaluate(x)
        got = numeric_weyl(problem, x)
        assert abs(got - ref) <= 1e-9 * abs(ref)
        assert abs(conv.value(2 * conv.order) - got) <= 1e-12 * abs(got)

    def test_default_n2_rule_builds_no_tensor_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tensor grid built for the Weyl convolution")

        problem = random_admissible_problem(np.random.default_rng(4), 2, pluriharmonic=True)
        x = np.array([1.0 + 0.5j, -0.5j])
        monkeypatch.setattr(oracle_module, "_tensor_chunks", refuse)
        got = numeric_weyl(problem, x)
        assert got == pytest.approx(weyl_symbol(problem).evaluate(x), rel=1e-9)


class TestHermiteRule:
    """The Weyl convolution's 1d rule: each factor is the integral of
    e^{-s^2 + alpha s}, exactly sqrt(pi) e^{alpha^2/4}."""

    @staticmethod
    def remainder(alpha, order):
        # the Gauss-Hermite remainder for e^{alpha s}, relative to the integral
        return math.exp(2 * order * math.log(abs(alpha)) + math.lgamma(order + 1)
                        - order * math.log(2.0) - math.lgamma(2 * order + 1))

    @pytest.mark.parametrize("alpha", [1e-6, 0.5, -3.0, 12.0, 40.0, -75.0])
    def test_derived_order_is_least_meeting_the_target(self, alpha):
        order = _hermite_order(alpha)
        assert self.remainder(alpha, order) <= _WEYL_RULE_TOL < self.remainder(alpha, order - 1)
        s, log_w = _hermite_log_rule(order)
        rule = np.exp(log_w + alpha * s - alpha ** 2 / 4.0).sum()
        assert rule == pytest.approx(math.sqrt(math.pi), rel=1e-11)

    def test_order_above_the_cap_is_refused(self):
        with pytest.raises(NumericalFailure, match="order above"):
            _hermite_order(200.0)

    @pytest.mark.parametrize("order", [1, 2, 7, 40, 150, 151, 600])
    def test_log_weights_match_scipy(self, order):
        s, log_w = _hermite_log_rule(order)
        nodes, weights = scipy.special.roots_hermite(order)
        assert np.array_equal(s, nodes)
        normal = weights > 1e-300  # the far weights of high orders underflow
        assert np.max(np.abs(np.exp(log_w[normal]) / weights[normal] - 1.0)) <= 1e-11
        assert np.exp(log_w).sum() == pytest.approx(math.sqrt(math.pi), rel=1e-13)


class TestCoherentNorms:
    def test_trivial_symbol_normalized(self):
        for r in (0.5, 1.0, 2.0, 4.0):
            got = numeric_coherent_norm(trivial_problem(), [r])
            assert got == pytest.approx(1.0, abs=1e-10)

    def test_trivial_symbol_n2(self):
        got = numeric_coherent_norm(trivial_problem(2), [1.0, 0.5j], nbasis=45, order=36)
        assert got == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lam,expect", [(-0.5, -0.1875), (0.2, (1 / 0.36 - 1) / 4)])
    def test_log_norm_slopes(self, lam, expect):
        problem = scalar_problem(lam)
        radii = np.array([1.0, 2.0, 4.0])
        logs = [np.log(numeric_coherent_norm(problem, [r])) for r in radii]
        slope = np.polyfit(radii ** 2, logs, 1)[0]
        assert abs(slope - expect) <= 0.01 * abs(expect)

    @staticmethod
    def explicit_coefficients(problem, w, nbasis, order):
        """The tensor grid and the monomial matrix built out in full."""
        n, h = problem.n, problem.weight.h
        hdiag = np.real(np.diag(h))
        minv, detm = _substitution(_gaussian_exponent_matrix(problem))
        s, wts = scipy.special.roots_hermite(order)
        pts = np.array(list(itertools.product(s, repeat=2 * n)))
        weights = np.prod(list(itertools.product(wts, repeat=2 * n)), axis=1)
        t = pts @ minv.T
        x, xb = t[:, :n] + 1j * t[:, n:], t[:, :n] - 1j * t[:, n:]
        kernel = np.exp(2.0 * (x @ h.T) @ np.conj(w))
        indices = monomial_indices(n, nbasis)
        log_norms = _log_monomial_norms_sq(hdiag, indices)
        mono = np.array([np.prod(xb ** np.array(alpha), axis=1) * math.exp(-0.5 * ln)
                         for alpha, ln in zip(indices, log_norms)])
        scale = math.exp(0.5 * np.sum(np.log(2.0 * hdiag / math.pi)) - problem.weight.value(w))
        return mono @ (weights * kernel) * detm * scale

    @pytest.mark.parametrize("case", ["n1", "n2", "n2 chunked"])
    def test_coefficients_match_the_explicit_grid(self, monkeypatch, case):
        if case == "n1":
            problem, w, nbasis, order = scalar_problem(-0.3 + 0.1j, 0.08), np.array([1.5 - 0.5j]), 12, 30
        else:
            problem = diagonal_levi_problem(np.random.default_rng(3), 2)
            w, nbasis, order = np.array([0.8, 0.3j]), 10, 8
        if case == "n2 chunked":
            monkeypatch.setattr(oracle_module, "_MAX_TENSOR_POINTS", 1000)  # 8 chunks
        ref = self.explicit_coefficients(problem, w, nbasis, order)
        got = _coherent_coefficients(problem, w, nbasis, order)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_norm_builds_no_monomial_table(self, monkeypatch):
        def never(*args):
            raise AssertionError("monomial table built")

        problem = scalar_problem(-0.4 + 0.1j)
        expect = numeric_coherent_norm(problem, [2.0])
        monkeypatch.setattr(oracle_module, "_monomials", never)
        assert numeric_coherent_norm(problem, [2.0]) == expect

    def test_norm_peak_memory(self):
        problem = scalar_problem(-0.4 + 0.1j)
        numeric_coherent_norm(problem, [4.0])  # SciPy's lazy imports
        tracemalloc.start()
        try:
            numeric_coherent_norm(problem, [4.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # basis 64 on the 148^2-node rule: one grid and one row, not a table
        assert peak < 4 * (1 << 20)

    def test_weak_convergence_of_coherent_states(self):
        # fixed basis element against k_w along a ray: coefficients vanish
        problem = trivial_problem()
        mags = []
        for r in (2.0, 5.0, 8.0):
            coeffs = _coherent_coefficients(problem, [r], nbasis=4, order=80)
            mags.append(np.abs(coeffs))
        for k in range(4):
            seq = [m[k] for m in mags]
            assert seq[1] < seq[0] and seq[2] < seq[1]
            assert seq[-1] < 1e-4


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
