import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bargtop.errors import NumericalFailure
from bargtop.forms import (
    ComplexQuadraticForm,
    Weight,
    check_admissible,
    quadratic_matrix,
    real_part_matrix,
    realify,
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
        g = ComplexQuadraticForm.zero(2)
        rng = np.random.default_rng(0)
        for y, t in zip(rand_points(rng, 2, 20), rand_points(rng, 2, 20)):
            assert g.polar_value(y, t) == 0.0

    def test_model_weight_polarization(self):
        # |x|^2/4 polarizes to x.y/4
        g = Weight.model(1).as_form()
        rng = np.random.default_rng(0)
        for x, y in zip(rand_points(rng, 1, 20), rand_points(rng, 1, 20)):
            assert g.polar_value(x, y) == pytest.approx((x @ y) / 4.0)

    def test_model_symbol_polarization(self):
        lam, a = 0.1 + 0.2j, 0.05 - 0.01j
        g = model_q(lam, a)
        rng = np.random.default_rng(1)
        for y, t in zip(rand_points(rng, 1, 20), rand_points(rng, 1, 20)):
            expect = lam * y[0] * t[0] + a * t[0] ** 2
            assert g.polar_value(y, t) == pytest.approx(expect, abs=1e-13)

    def test_restriction_identity(self):
        # value is the polarization at theta = conj(y), bit for bit
        rng = np.random.default_rng(2)
        for n in (1, 2):
            q = ComplexQuadraticForm(
                _sym(rng, n), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                _sym(rng, n),
            )
            for y in rand_points(rng, n, 1000 // 2):
                assert q.polar_value(y, np.conj(y)) == q.value(y)

    def test_holomorphic_in_each_variable(self):
        # a quadratic form on C^{2n}: G(c y, c theta) = c^2 G(y, theta), and
        # the cross term is bilinear, G(y, t) + G(y', t') - G(y + y', t + t')
        # = -(theta'.Qxbx y + theta.Qxbx y' + y.Qxx y' + theta.Qxbxb theta')
        rng = np.random.default_rng(3)
        n = 2
        q = ComplexQuadraticForm(_sym(rng, n), rng.standard_normal((n, n)) + 0j, _sym(rng, n))
        for _ in range(20):
            y, t, y2, t2 = rand_points(rng, n, 4)
            c = complex(rng.standard_normal(), rng.standard_normal())
            assert q.polar_value(c * y, c * t) == pytest.approx(c * c * q.polar_value(y, t),
                                                                rel=1e-13, abs=1e-13)
            cross = t2 @ q.qxbx @ y + t @ q.qxbx @ y2 + y @ q.qxx @ y2 + t @ q.qxbxb @ t2
            split = q.polar_value(y, t) + q.polar_value(y2, t2) - q.polar_value(y + y2, t + t2)
            assert split == pytest.approx(-cross, rel=1e-12, abs=1e-12)


def _sym(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (b + b.T) / 2


def herm_value(w, x):
    """The Hermitian part of the weight, xbar.H x."""
    return float((np.conj(x) @ w.h @ x).real)


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
                assert half == pytest.approx(herm_value(w, x), rel=1e-14, abs=1e-12)

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
        assert herm_value(w, x) == w.value(x)

    def test_scalar_example(self):
        # Phi = |x|^2/4 + 0.1 Re(x^2)
        w = Weight(np.array([[0.25]]), np.array([[0.1]]))
        assert not w.is_hermitian
        x = np.array([1.0 + 1.0j])
        assert herm_value(w, x) == pytest.approx(0.5)
        assert w.value(x) - herm_value(w, x) == pytest.approx(0.1 * (x[0] ** 2).real, abs=1e-15)

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
            assert herm_value(w, x) + plh == pytest.approx(w.value(x), rel=1e-14, abs=1e-12)
            # the Hermitian part is the average over the rotation x -> i x
            assert herm_value(w, x) == pytest.approx((w.value(x) + w.value(1j * x)) / 2,
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


    def test_margins_are_the_direct_formulas(self):
        # bit for bit: the overflow guard leaves finite margins untouched
        rng = np.random.default_rng(10)
        for n in (1, 2, 3):
            problem = random_admissible_problem(rng, n, pluriharmonic=True)
            w, q = problem.weight, problem.q
            rep = check_admissible(w, q)
            d = 2.0 * w.h - q.qxbx
            assert rep.herm_margin == np.linalg.eigvalsh(realify(-q.qxx, w.h - q.qxbx, -q.qxbxb))[0]
            assert rep.det_margin == abs(np.linalg.det(d)) / np.linalg.norm(d, 2) ** n

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, qxbx, qxbxb", [
        (1, [[1e308]], [[1.78e308]]),  # the realified gap
        (2, -1e200 * np.eye(2), np.zeros((2, 2))),  # the determinant
        (2, 0.5 - 1e200 * np.ones((2, 2)), np.zeros((2, 2))),  # its scale to the n-th power
    ], ids=["gap", "determinant", "scale"])
    def test_overflow_raises_numerical_failure(self, n, qxbx, qxbxb):
        q = ComplexQuadraticForm(np.zeros((n, n)), qxbx, qxbxb)
        with pytest.raises(NumericalFailure, match="overflows"):
            check_admissible(Weight.model(n), q)


class TestPolarNondegenerate:
    def test_random_admissible_always_nondegenerate(self):
        # g = q - 2 Phi has Re g < 0, and its polarization's Hessian in
        # (y, theta) is well conditioned
        rng = np.random.default_rng(7)
        for _ in range(100):
            problem = random_admissible_problem(rng, 2)
            g = problem.q - 2.0 * problem.weight.as_form()
            assert np.linalg.eigvalsh(real_part_matrix(g))[-1] < 0.0
            hess = np.block([[g.qxx, g.qxbx.T], [g.qxbx, g.qxbxb]])
            sv = np.linalg.svd(hess, compute_uv=False)
            assert sv[-1] > 1e-12 * sv[0]


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


class TestLapack:
    """The gufunc calls of the classify path against np.linalg, bit for bit."""

    @staticmethod
    def bits(x):
        x = np.asarray(x)
        return x.dtype, x.shape, x.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), real=st.booleans())
    def test_same_results_as_np_linalg(self, n, seed, real):
        from bargtop import _lapack

        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + (0.0 if real else 1j) * rng.standard_normal((n, n))
        a[rng.random((n, n)) < 0.2] = -0.0  # zeros, and their signs, reach LAPACK too
        herm = a + a.conj().T
        pd = herm @ herm.conj().T + np.eye(n)
        cases = [
            (_lapack.eigvalsh(herm), np.linalg.eigvalsh(herm)),
            (_lapack.svdvals(a), np.linalg.svd(a, compute_uv=False)),
            (_lapack.svdvals(a[: n // 2 + 1, : n // 2 + 1]),
             np.linalg.svd(a[: n // 2 + 1, : n // 2 + 1], compute_uv=False)),
            (_lapack.inv(pd), np.linalg.inv(pd)),
            (_lapack.solve(pd, a), np.linalg.solve(pd, a)),
            (_lapack.cholesky(pd), np.linalg.cholesky(pd)),
            (_lapack.det(a), np.linalg.det(a)),
            (_lapack.slogdet(a)[0], np.linalg.slogdet(a)[0]),
            (_lapack.slogdet(a)[1], np.linalg.slogdet(a)[1]),
            (_lapack.eigvals(a), np.linalg.eigvals(a)),
        ]
        # a real triangular matrix has its diagonal, all real, as its
        # spectrum, and gives it as a real array; a real 2 x 2 rotation
        # block adds a complex-conjugate pair
        triangular = np.triu(a.real)
        spectra = [(triangular, "f")]
        if n >= 2:
            pairs = triangular.copy()
            pairs[:2, :2] = [[1.0, 2.0], [-2.0, 1.0]]
            spectra.append((pairs, "c"))
        for mat, kind in spectra:
            got = _lapack.eigvals(mat)
            assert got.dtype.kind == kind
            cases.append((got, np.linalg.eigvals(mat)))
        for got, want in cases:
            assert self.bits(got) == self.bits(want)

    def test_empty_matrix_is_semidefinite(self):
        from bargtop.forms import classify_real_form

        assert classify_real_form(np.zeros((0, 0))) == ("semidefinite", 0.0, 0.0)

    def test_failed_factorization_raises(self):
        from bargtop import _lapack

        with pytest.warns(RuntimeWarning), pytest.raises(NumericalFailure, match="LAPACK"):
            _lapack.inv(np.zeros((2, 2)))

    def test_this_numpy_has_every_gufunc(self):
        # a NumPy that renamed one would still classify, through np.linalg
        from bargtop import _lapack

        for names in [("eigvalsh_lo",), ("svd", "svd_n"), ("inv",), ("solve",), ("cholesky_lo",),
                      ("det",), ("slogdet",), ("eigvals",)]:
            assert any(hasattr(_lapack._gufuncs, name) for name in names), names

    def test_missing_gufunc_falls_back_to_np_linalg(self):
        from bargtop import _lapack

        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        pd = a @ a.conj().T + np.eye(3)
        inv = _lapack._bound(("no_such_gufunc",), "d->d", "D->D", np.linalg.inv)
        svdvals = _lapack._bound(("no_such_gufunc",), "d->d", "D->d",
                                 lambda m: np.linalg.svd(m, compute_uv=False))
        assert self.bits(inv(pd)) == self.bits(_lapack.inv(pd))
        assert self.bits(svdvals(a)) == self.bits(_lapack.svdvals(a))
        with pytest.raises(NumericalFailure, match="LAPACK no_such_gufunc failed"):
            inv(np.zeros((2, 2)))


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
