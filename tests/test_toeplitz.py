import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bargtop.bergman import bergman_exponent
from bargtop.errors import InadmissibleProblem
from bargtop.forms import ComplexQuadraticForm, Weight, polarize
from bargtop.symplectic import (
    _involution_closed_hermitian,
    graph_point,
    involution_for_weight,
    positivity_certificate,
)
from bargtop.toeplitz import (
    SubVerdict,
    ToeplitzProblem,
    VerdictClass,
    classify_operator,
)
from bargtop.model import ModelInstance, closed_form_map, model_problem
from bargtop.verify import (
    build_phase,
    canonical_map,
    coherent_route_map,
    factorization_residual,
    random_admissible_problem,
)
from bargtop.weyl import weyl_symbol


def cpx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBuildPhase:
    def test_model_phase_closed_form(self):
        lam, a = -0.3 + 0.1j, 0.04
        problem = model_problem(ModelInstance(1, lam, np.array([[a]])))
        phase = build_phase(problem)
        rng = np.random.default_rng(0)
        for _ in range(30):
            x, y, t = cpx(rng, 3)
            expect = ((x - y) * t / 2 + lam * y * t + a * t * t) / 1j
            assert phase.value([x], [y], [t]) == pytest.approx(expect, abs=1e-13)

    def test_trivial_symbol_phase(self):
        rng = np.random.default_rng(1)
        w = Weight(np.array([[0.4, 0.1j], [-0.1j, 0.6]]), np.zeros((2, 2)))
        problem = ToeplitzProblem(w, ComplexQuadraticForm.zero(2))
        phase = build_phase(problem)
        psi = polarize(w)
        for _ in range(30):
            x, y, t = cpx(rng, 3, 2)
            expect = -2j * (psi.value(x, t) - psi.value(y, t))
            assert phase.value(x, y, t) == pytest.approx(expect, abs=1e-12)

    def test_restriction_reproduces_weight_difference(self):
        rng = np.random.default_rng(2)
        w = Weight(np.array([[0.5]]), np.array([[0.08]]))
        q = ComplexQuadraticForm(np.array([[0.02j]]), np.array([[-0.2]]), np.array([[0.05]]))
        problem = ToeplitzProblem(w, q)
        phase = build_phase(problem)
        psi = polarize(w)
        for _ in range(50):
            x, y = cpx(rng, 2, 1)
            got = 1j * phase.value(x, y, np.conj(y))
            expect = 2.0 * (psi.value(x, np.conj(y)) - w.value(y)) + q.value(y)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_inadmissible_rejected(self):
        bad = ToeplitzProblem(
            Weight.model(1),
            ComplexQuadraticForm(np.zeros((1, 1)), 0.3 * np.eye(1), np.zeros((1, 1))),
        )
        with pytest.raises(InadmissibleProblem):
            build_phase(bad)


class TestKappa:
    def test_model_examples(self):
        assert np.allclose(
            canonical_map(model_problem(ModelInstance(1, 0.0, np.zeros((1, 1))))).k, np.eye(2)
        )
        k = canonical_map(model_problem(ModelInstance(1, -0.5, np.zeros((1, 1)))))
        assert np.allclose(k.k, np.diag([2.0, 0.5]), atol=1e-14)

    def test_matches_closed_form_family(self):
        rng = np.random.default_rng(3)
        for n in (1, 2):
            for _ in range(50):
                lam = complex(rng.uniform(-1.5, 0.2), rng.uniform(-1, 1))
                b = 0.04 * cpx(rng, n, n)
                a = (b + b.T) / 2
                inst = ModelInstance(n, lam, a)
                if not inst.is_admissible:
                    continue
                k1 = canonical_map(model_problem(inst))
                k2 = closed_form_map(inst)
                assert np.max(np.abs(k1.k - k2.k)) < 1e-12

    def test_agrees_with_coherent_route(self):
        rng = np.random.default_rng(4)
        for k in range(20):
            problem = random_admissible_problem(rng, 1 + k % 2)
            k1 = canonical_map(problem)
            k2 = coherent_route_map(problem)
            assert np.max(np.abs(k1.k - k2.k)) < 1e-10 * max(1.0, np.max(np.abs(k1.k)))


class TestReduceAndFactor:
    """The normal form reduces a problem to the weight |x|^2/4 and factors
    its canonical map as K = T^{-1} K' T."""

    def test_hermitian_weight_residual_zero(self):
        problem = model_problem(ModelInstance(1, -0.4, np.zeros((1, 1))))
        assert problem.normal is problem
        assert factorization_residual(problem) < 1e-15
        assert np.array_equal(classify_operator(problem).kappa.k, canonical_map(problem).k)

    def test_scalar_pluriharmonic_example(self):
        w = Weight(np.array([[0.25]]), np.array([[0.1]]))
        q = ComplexQuadraticForm(np.zeros((1, 1)), np.array([[-0.3]]), np.zeros((1, 1)))
        problem = ToeplitzProblem(w, q)
        assert factorization_residual(problem) < 1e-12
        # the frame is 1, so only the shear acts and q is unchanged
        assert problem.normal.weight.is_hermitian
        assert problem.normal.q.qxbx[0, 0] == pytest.approx(-0.3, abs=1e-15)

    def test_random_weights(self):
        rng = np.random.default_rng(5)
        for k in range(30):
            problem = random_admissible_problem(rng, 1 + k % 2, pluriharmonic=True)
            assert factorization_residual(problem) < 1e-12

    def test_positivity_equivalence_under_reduction(self):
        rng = np.random.default_rng(6)
        for k in range(15):
            problem = random_admissible_problem(rng, 1 + k % 2, pluriharmonic=True,
                                                damped=(k % 2 == 0))
            cert_full = positivity_certificate(
                canonical_map(problem), involution_for_weight(problem.weight)
            )
            cert_normal = positivity_certificate(
                canonical_map(problem.normal), _involution_closed_hermitian(np.eye(problem.n) / 4)
            )
            assert cert_full.classification == cert_normal.classification


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


class TestNormalForm:
    def test_frame_sends_levi_form_to_model(self):
        rng = np.random.default_rng(20)
        for n in (1, 2, 3):
            problem = random_admissible_problem(rng, n, pluriharmonic=True)
            m = problem.frame
            assert _max_rel(m.conj().T @ m / 4.0, problem.weight.h) < 1e-14
            assert np.array_equal(problem.normal.weight.h, np.eye(n) / 4.0)
            assert not problem.normal.weight.p.any()
            for x in cpx(rng, 20, n):
                assert problem.normal.q.value(m @ x) == pytest.approx(problem.q.value(x),
                                                                      rel=1e-12, abs=1e-12)

    def test_normal_map_carries_graph_to_model_graph(self):
        rng = np.random.default_rng(21)
        problem = random_admissible_problem(rng, 3, pluriharmonic=True)
        t, t_inv = problem.normal_map()
        assert _max_rel(t @ t_inv, np.eye(6)) < 1e-14
        for x in cpx(rng, 20, 3):
            image = t @ graph_point(problem.weight, x).vec
            want = graph_point(problem.normal.weight, problem.frame @ x).vec
            assert _max_rel(image, want) < 1e-13

    def test_normal_form_keeps_admissibility_and_tolerance(self):
        problem = random_admissible_problem(np.random.default_rng(12), 2, pluriharmonic=True)
        problem = ToeplitzProblem(problem.weight, problem.q, tol=1e-6)
        assert problem.normal.tol == 1e-6
        assert problem.admissibility is problem.normal.admissibility
        assert problem.normal.normal is problem.normal

    def test_report_quantities_in_file_coordinates(self):
        # the verdict's K against the general construction on the problem as
        # given, and its Weyl symbol and coherent exponent against the
        # single-route functions (tests/test_kernels.py compares those with
        # the general-weight formulas)
        rng = np.random.default_rng(22)
        for k in range(12):
            problem = random_admissible_problem(rng, 1 + k % 3, pluriharmonic=True,
                                                damped=(k % 2 == 0))
            v = classify_operator(problem)
            assert _max_rel(v.kappa.k, canonical_map(problem).k) < 1e-12
            symbol = weyl_symbol(problem)
            for got, want in ((v.symbol.g.qxx, symbol.g.qxx), (v.symbol.g.qxbx, symbol.g.qxbx),
                              (v.symbol.g.qxbxb, symbol.g.qxbxb)):
                assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(symbol.g.qxbx))
            assert v.symbol.prefactor_modulus == pytest.approx(symbol.prefactor_modulus,
                                                               rel=1e-12)
            herm = ToeplitzProblem(Weight(problem.weight.h, np.zeros_like(problem.weight.p)),
                                   problem.q)
            f = bergman_exponent(herm)
            scale = max(np.max(np.abs(f.fxx)), np.max(np.abs(f.fxz)), np.max(np.abs(f.fzz)))
            for got, want in ((v.bergman_form.fxx, f.fxx), (v.bergman_form.fxz, f.fxz),
                              (v.bergman_form.fzz, f.fzz)):
                assert np.max(np.abs(got - want)) < 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.0, 0.05])
    def test_dilated_compact_problem(self, n, a):
        # H = s/4, q = s(-|x|^2/2 + a xbar.xbar) is the dilation of a compact
        # model problem, so every s gives the same confident verdict
        eye = np.eye(n)
        for k in range(-8, 9):
            s = 10.0 ** k
            q = ComplexQuadraticForm(np.zeros((n, n)), -s / 2 * eye, 2 * a * s * eye)
            v = classify_operator(ToeplitzProblem(Weight(s / 4 * eye, np.zeros((n, n))), q))
            assert v.verdict is VerdictClass.COMPACT and not v.boundary, k
            assert set(v.witnesses) == {"certificate", "weyl", "bergman", "model"}
            assert all(sub.confident and sub.verdict is VerdictClass.COMPACT
                       for sub in v.witnesses.values()), k

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           log_c=st.floats(-6.0, 6.0), damped=st.booleans())
    def test_invariant_under_dilation_rotation_and_shear(self, seed, n, log_c, damped):
        # x = c U y with U unitary, plus an arbitrary pluriharmonic part, is a
        # unitary equivalence; the normal forms differ by a unitary map, so
        # the verdict and every scale-free margin are unchanged
        rng = np.random.default_rng(seed)
        problem = random_admissible_problem(rng, n, damped=damped)
        u = 10.0 ** log_c * _random_unitary(rng, n)
        h, q = problem.weight.h, problem.q
        sym = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        moved = ToeplitzProblem(
            Weight(u.conj().T @ h @ u, 10.0 ** (2 * log_c) * (sym + sym.T) / 4),
            ComplexQuadraticForm(u.T @ q.qxx @ u, u.conj().T @ q.qxbx @ u,
                                 u.conj().T @ q.qxbxb @ u.conj()),
        )
        v, w = classify_operator(problem), classify_operator(moved)
        assert v.verdict is w.verdict
        for name in ("certificate", "weyl", "bergman"):
            a, b = v.witnesses[name], w.witnesses[name]
            assert abs(a.margin - b.margin) <= 1e-10 * a.scale, name
            assert abs(a.scale - b.scale) <= 1e-10 * a.scale, name


class TestClassify:
    def test_trivial_symbol(self):
        v = classify_operator(
            ToeplitzProblem(Weight.model(1), ComplexQuadraticForm.zero(1))
        )
        assert v.verdict is VerdictClass.BOUNDED_NOT_COMPACT
        assert v.boundary
        assert v.margin == pytest.approx(0.0, abs=1e-14)

    def test_compact_example(self):
        v = classify_operator(model_problem(ModelInstance(1, -0.5, np.zeros((1, 1)))))
        assert v.verdict is VerdictClass.COMPACT
        assert v.margin == pytest.approx(1.5, abs=1e-12)
        assert set(v.witnesses) == {"certificate", "weyl", "bergman", "model"}

    def test_unbounded_example(self):
        v = classify_operator(model_problem(ModelInstance(1, 0.0, np.array([[0.1]]))))
        assert v.verdict is VerdictClass.UNBOUNDED

    def test_inadmissible_verdict(self):
        problem = ToeplitzProblem(
            Weight.model(1),
            ComplexQuadraticForm(np.zeros((1, 1)), 0.3 * np.eye(1), np.zeros((1, 1))),
        )
        v = classify_operator(problem)
        assert v.verdict is VerdictClass.INADMISSIBLE
        assert v.admissibility is not None and not v.admissibility.ok

    def test_model_witness_only_on_model_problems(self):
        rng = np.random.default_rng(7)
        problem = random_admissible_problem(rng, 1)
        v = classify_operator(problem)
        assert "model" not in v.witnesses

    def test_confidence_floor(self):
        noise = SubVerdict("weyl", VerdictClass.UNBOUNDED, -1e-16, 1e-16)
        assert not noise.confident
        solid = SubVerdict("weyl", VerdictClass.UNBOUNDED, -0.5, 1.0)
        assert solid.confident
