import numpy as np
import pytest

from bargtop.bergman import coherent_route_map
from bargtop.errors import InadmissibleProblem
from bargtop.forms import ComplexQuadraticForm, Weight, polarize
from bargtop.symplectic import involution_for_weight, positivity_certificate
from bargtop.toeplitz import (
    SubVerdict,
    ToeplitzProblem,
    VerdictClass,
    build_phase,
    canonical_map,
    classify_operator,
    reduce_and_factor,
)
from bargtop.model import ModelInstance, closed_form_map, model_problem
from bargtop.verify import random_admissible_problem


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
    def test_hermitian_weight_residual_zero(self):
        problem = model_problem(ModelInstance(1, -0.4, np.zeros((1, 1))))
        k_herm, residual = reduce_and_factor(problem)
        assert residual < 1e-15
        assert np.allclose(k_herm.k, canonical_map(problem).k)

    def test_scalar_pluriharmonic_example(self):
        w = Weight(np.array([[0.25]]), np.array([[0.1]]))
        q = ComplexQuadraticForm(np.zeros((1, 1)), np.array([[-0.3]]), np.zeros((1, 1)))
        _, residual = reduce_and_factor(ToeplitzProblem(w, q))
        assert residual < 1e-12

    def test_random_weights(self):
        rng = np.random.default_rng(5)
        for k in range(30):
            problem = random_admissible_problem(rng, 1 + k % 2, pluriharmonic=True)
            _, residual = reduce_and_factor(problem)
            assert residual < 1e-12

    def test_positivity_equivalence_under_reduction(self):
        rng = np.random.default_rng(6)
        for k in range(15):
            problem = random_admissible_problem(rng, 1 + k % 2, pluriharmonic=True,
                                                damped=(k % 2 == 0))
            cert_full = positivity_certificate(
                canonical_map(problem), involution_for_weight(problem.weight)
            )
            k_herm, _ = reduce_and_factor(problem)
            cert_red = positivity_certificate(
                k_herm, involution_for_weight(problem.reduced().weight)
            )
            assert cert_full.classification == cert_red.classification


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

    def test_reduced_keeps_admissibility_and_tolerance(self):
        problem = random_admissible_problem(np.random.default_rng(12), 2, pluriharmonic=True)
        problem = ToeplitzProblem(problem.weight, problem.q, tol=1e-6)
        reduced = problem.reduced()
        assert reduced.weight.is_hermitian
        assert reduced.admissibility is problem.admissibility
        assert reduced.tol == 1e-6

    def test_confidence_floor(self):
        noise = SubVerdict("weyl", VerdictClass.UNBOUNDED, -1e-16, 1e-16)
        assert not noise.confident
        solid = SubVerdict("weyl", VerdictClass.UNBOUNDED, -0.5, 1.0)
        assert solid.confident
