import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bargtop.forms import (
    ComplexQuadraticForm,
    Weight,
    check_admissible,
    check_polar_nondegenerate,
    polarize,
    quadratic_matrix,
    real_part_matrix,
    uninterleave,
)
from bargtop.verify import random_admissible_problem


def rand_points(rng, n, count):
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


def model_q(lam, a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    n = a.shape[0]
    return ComplexQuadraticForm(np.zeros((n, n)), lam * np.eye(n), 2.0 * a)


class TestPolarize:
    def test_zero_form(self):
        g = polarize(ComplexQuadraticForm.zero(2))
        assert np.all(g.gyy == 0) and np.all(g.gty == 0) and np.all(g.gtt == 0)

    def test_model_weight_polarization(self):
        # |x|^2/4 polarizes to x.y/4
        g = polarize(Weight.model(1))
        rng = np.random.default_rng(0)
        for x, y in zip(rand_points(rng, 1, 20), rand_points(rng, 1, 20)):
            assert g.value(x, y) == pytest.approx((x @ y) / 4.0)

    def test_model_symbol_polarization(self):
        lam, a = 0.1 + 0.2j, 0.05 - 0.01j
        g = polarize(model_q(lam, a))
        rng = np.random.default_rng(1)
        for y, t in zip(rand_points(rng, 1, 20), rand_points(rng, 1, 20)):
            expect = lam * y[0] * t[0] + a * t[0] ** 2
            assert g.value(y, t) == pytest.approx(expect, abs=1e-13)

    def test_restriction_identity(self):
        rng = np.random.default_rng(2)
        for n in (1, 2):
            q = ComplexQuadraticForm(
                _sym(rng, n), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                _sym(rng, n),
            )
            g = polarize(q)
            for y in rand_points(rng, n, 1000 // 2):
                diff = abs(g.value(y, np.conj(y)) - q.value(y))
                assert diff <= 1e-14 * (1.0 + np.sum(np.abs(y) ** 2)) * 20


def _sym(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (b + b.T) / 2


class TestRealValued:
    def test_predicate_matches_sampling(self):
        rng = np.random.default_rng(3)
        n = 2
        # real-valued: qxbxb = conj(qxx), qxbx Hermitian
        s = _sym(rng, n)
        herm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = (herm + herm.conj().T) / 2
        real_form = ComplexQuadraticForm(s, herm, np.conj(s))
        generic = ComplexQuadraticForm(s, herm + 0.1j * np.eye(n), np.conj(s) + 0.05 * np.eye(n))
        for form, expect in ((real_form, True), (generic, False)):
            sampled = all(
                abs(form.value(x).imag) <= 1e-10 * (1 + np.sum(np.abs(x) ** 2))
                for x in rand_points(rng, n, 1000)
            )
            assert form.is_real_valued() is expect
            assert sampled is expect


class TestWeight:
    def test_hermitian_part_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = 2
            h = _sym(rng, n) @ np.eye(n)
            h = h @ h.conj().T + 2 * np.eye(n)
            w = Weight(h, _sym(rng, n) * 0.1)
            for x in rand_points(rng, n, 100):
                half = 0.5 * (w.value(x) + w.value(1j * x))
                assert half == pytest.approx(w.herm_value(x), rel=1e-14, abs=1e-12)

    def test_degenerate_weight_rejected(self):
        with pytest.raises(ValueError, match="plurisubharmonic"):
            Weight(np.diag([1.0, 0.0]), np.zeros((2, 2)))

    def test_asymmetric_p_rejected(self):
        with pytest.raises(ValueError):
            Weight(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_as_form_matches_value(self):
        rng = np.random.default_rng(5)
        w = Weight(np.array([[0.5, 0.1j], [-0.1j, 0.7]]), _sym(rng, 2) * 0.1)
        form = w.as_form()
        for x in rand_points(rng, 2, 50):
            assert form.value(x).real == pytest.approx(w.value(x), abs=1e-12)
            assert abs(form.value(x).imag) < 1e-12


class TestSplit:
    """Phi = xbar.H x + Re(x.P x): the Hermitian part and the pluriharmonic part."""

    def test_zero_pluriharmonic(self):
        w = Weight.model(2)
        assert w.is_hermitian
        x = np.array([1.0 - 2.0j, 0.5j])
        assert w.herm_value(x) == w.value(x)

    def test_scalar_example(self):
        # Phi = |x|^2/4 + 0.1 Re(x^2)
        w = Weight(np.array([[0.25]]), np.array([[0.1]]))
        assert not w.is_hermitian
        x = np.array([1.0 + 1.0j])
        assert w.herm_value(x) == pytest.approx(0.5)
        assert w.value(x) - w.herm_value(x) == pytest.approx(0.1 * (x[0] ** 2).real, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_is_hermitian_is_scale_free(self, scale):
        h = np.array([[0.25]])
        assert Weight(scale * h, np.zeros((1, 1))).is_hermitian
        assert Weight(scale * h, scale * np.array([[1e-16]])).is_hermitian
        assert not Weight(scale * h, scale * np.array([[1e-3]])).is_hermitian

    def test_recomposition(self):
        rng = np.random.default_rng(6)
        h = _sym(rng, 2)
        h = h @ h.conj().T + np.eye(2)
        w = Weight(h, 0.2 * _sym(rng, 2))
        for x in rand_points(rng, 2, 100):
            plh = (x @ w.p @ x).real
            assert w.herm_value(x) + plh == pytest.approx(w.value(x), rel=1e-14, abs=1e-12)
            # the Hermitian part is the average over the rotation x -> i x
            assert w.herm_value(x) == pytest.approx((w.value(x) + w.value(1j * x)) / 2,
                                                    rel=1e-14, abs=1e-12)


class TestAdmissibility:
    def test_trivial_ok(self):
        rep = check_admissible(Weight.model(1), ComplexQuadraticForm.zero(1))
        assert rep.ok
        assert rep.herm_margin == pytest.approx(0.25, abs=1e-12)

    def test_outer_block_violation(self):
        # lam=0, A=0.3: Re lam + ||A|| = 0.3 >= 1/4
        rep = check_admissible(Weight.model(1), model_q(0.0, 0.3))
        assert not rep.ok
        assert any("nonnegative direction" in msg for msg in rep.failures)
        assert rep.herm_margin == pytest.approx(0.25 - 0.3, abs=1e-12)

    def test_radial_ok(self):
        rep = check_admissible(Weight.model(1), model_q(0.2, 0.0))
        assert rep.ok
        assert rep.herm_margin == pytest.approx(0.05, abs=1e-12)

    def test_singular_mixed_hessian(self):
        # q = 2 Phi kills the determinant condition but keeps (1.8)-type gap? no:
        # qxbx = 2H makes Re q = Phi_herm too; use qxbx = 2H with tiny real part
        w = Weight.model(1)
        q = ComplexQuadraticForm(np.zeros((1, 1)), np.array([[0.5 + 0.4j]]), np.zeros((1, 1)))
        rep = check_admissible(w, q)
        assert not rep.ok


class TestPolarNondegenerate:
    def test_diagonal_case(self):
        g = ComplexQuadraticForm(np.zeros((1, 1)), -np.eye(1), np.zeros((1, 1)))
        assert check_polar_nondegenerate(g)
        hess = polarize(g).hessian()
        assert np.allclose(hess, np.array([[0, -1], [-1, 0]]))

    def test_model_combination(self):
        w = Weight.model(1)
        q = model_q(0.0, 0.2)
        g = q - 2.0 * w.as_form()
        assert check_polar_nondegenerate(g)

    def test_precondition_reported(self):
        g = ComplexQuadraticForm(np.zeros((1, 1)), np.eye(1), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="negative definite"):
            check_polar_nondegenerate(g)

    def test_random_admissible_always_nondegenerate(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            problem = random_admissible_problem(rng, 2)
            g = problem.q - 2.0 * problem.weight.as_form()
            assert check_polar_nondegenerate(g)


class TestRealForm:
    def test_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(8)
        for n in (1, 2):
            q = ComplexQuadraticForm(
                _sym(rng, n),
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                _sym(rng, n),
            )
            mat = real_part_matrix(q)
            for _ in range(50):
                t = rng.standard_normal(2 * n)
                assert t @ mat @ t == pytest.approx(q.value(uninterleave(t)).real, abs=1e-12)

    def test_quadratic_matrix_complex(self):
        rng = np.random.default_rng(9)
        a = _sym(rng, 3)

        def fn(t):
            return complex(t @ a @ t)

        got = quadratic_matrix(fn, 3)
        assert np.allclose(got, a, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
    def test_closed_form_matches_quadratic_matrix(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        q = scale * ComplexQuadraticForm(
            _sym(rng, n),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            _sym(rng, n),
        )
        ref = quadratic_matrix(lambda t: q.value(uninterleave(t)).real, 2 * n)
        got = real_part_matrix(q)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(got, got.T)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["h", "p", "qxx", "qxbx", "qxbxb"])
    def test_rejected(self, bad, block):
        mats = {k: np.zeros((2, 2), dtype=complex) for k in ("p", "qxx", "qxbx", "qxbxb")}
        mats["h"] = np.eye(2) / 4.0
        mats[block][1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Weight(mats["h"], mats["p"])
            ComplexQuadraticForm(mats["qxx"], mats["qxbx"], mats["qxbxb"])
