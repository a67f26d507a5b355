import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bargtop.bergman import (
    BergmanForm,
    _growth_gap_matrix,
    _growth_quadratic_matrix,
    _require_hermitian_weight,
    bergman_exponent,
    coherent_overlap,
    critical_system,
    growth_exponent,
    growth_subverdict,
)
from bargtop.forms import ComplexQuadraticForm, Weight, quadratic_matrix, uninterleave
from bargtop.model import ModelInstance, model_problem
from bargtop.toeplitz import ToeplitzProblem, VerdictClass, classify_operator
from bargtop.verify import random_admissible_problem, random_weight


def cpx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestCriticalSystem:
    def test_model_block_structure(self):
        lam, a = 0.05 - 0.2j, 0.03 + 0.01j
        cs = critical_system(model_problem(ModelInstance(1, lam, np.array([[a]]))))
        expect = np.array([[0.5 - lam, -2 * a], [0.0, 0.5 - lam]])
        assert np.allclose(cs.amat, expect, atol=1e-14)

    def test_identity_at_gamma_half(self):
        cs = critical_system(model_problem(ModelInstance(1, -0.5, np.zeros((1, 1)))))
        assert np.allclose(cs.amat, np.eye(2))

    def test_trivial_symbol(self):
        rng = np.random.default_rng(0)
        w = random_weight(rng, 2)
        cs = critical_system(ToeplitzProblem(w, ComplexQuadraticForm.zero(2)))
        expect = np.block([
            [2 * w.h, np.zeros((2, 2))],
            [np.zeros((2, 2)), 2 * w.h.T],
        ])
        assert np.allclose(cs.amat, expect, atol=1e-14)
        assert min(cs.margins.values()) > 1e-12

    def test_requires_reduced_weight(self):
        w = Weight(np.array([[0.25]]), np.array([[0.1]]))
        with pytest.raises(ValueError, match="pluriharmonic"):
            critical_system(ToeplitzProblem(w, ComplexQuadraticForm.zero(1)))

    def test_pluriharmonic_part_refused_far_below_unit_scale(self):
        # P is 1% of H: not a rounding residual at any scale
        w = Weight(np.array([[1.0e-20]]), np.array([[1.0e-22]]))
        with pytest.raises(ValueError, match="pluriharmonic"):
            _require_hermitian_weight(w, "test")


class TestBergmanExponent:
    def test_trivial_symbol_reproduces_polarization(self):
        rng = np.random.default_rng(1)
        w = random_weight(rng, 2)
        f = bergman_exponent(ToeplitzProblem(w, ComplexQuadraticForm.zero(2)))
        psi = w.as_form()
        assert np.max(np.abs(f.fxx)) < 1e-14
        assert np.max(np.abs(f.fzz)) < 1e-14
        for _ in range(50):
            x, z = cpx(rng, 2, 2)
            assert f.value(x, z) == pytest.approx(psi.polar_value(x, z), abs=1e-14)

    def test_model_closed_form(self):
        rng = np.random.default_rng(2)
        for n in (1, 2):
            for _ in range(25):
                lam = complex(rng.uniform(-1.5, 0.2), rng.uniform(-1, 1))
                b = 0.04 * cpx(rng, n, n)
                inst = ModelInstance(n, lam, (b + b.T) / 2)
                if not inst.is_admissible:
                    continue
                g = inst.gamma
                f = bergman_exponent(model_problem(inst))
                assert np.max(np.abs(f.fxz - g / 4 * np.eye(n))) < 1e-12
                assert np.max(np.abs(f.fzz - g * g * inst.a)) < 1e-12
                assert np.max(np.abs(f.fxx)) < 1e-12

    def test_gamma_half_scalar(self):
        f = bergman_exponent(model_problem(ModelInstance(1, -0.5, np.zeros((1, 1)))))
        assert f.fxz[0, 0] == pytest.approx(0.125, abs=1e-14)

    def test_derivative_consistency(self):
        # f'_x = H^T theta(x,z) and f'_z = H y(x,z) at the critical point
        rng = np.random.default_rng(3)
        problem = random_admissible_problem(rng, 2)
        f = bergman_exponent(problem)
        assert f.route_residual < 1e-12
        h, q = problem.weight.h, problem.q
        amat = critical_system(problem).amat
        for _ in range(20):
            x, z = cpx(rng, 2, 2)
            rhs = np.concatenate([2 * h @ x, 2 * h.T @ z])
            yz = np.linalg.solve(amat, rhs)
            y, theta = yz[:2], yz[2:]
            fx = f.fxx @ x + f.fxz @ z
            fz = f.fxz.T @ x + f.fzz @ z
            assert np.max(np.abs(fx - h.T @ theta)) < 1e-11
            assert np.max(np.abs(fz - h @ y)) < 1e-11

    def test_mixed_block_nondegenerate_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            f = bergman_exponent(random_admissible_problem(rng, 2))
            assert f.scaled_mixed_det() > 1e-10

    @pytest.mark.parametrize("blocks", [
        (0, 0, 0),
        (np.eye(2), np.eye(3), np.eye(2)),
        (np.eye(2), np.eye(2), np.eye(3)),
        (np.ones(2), np.ones(2), np.ones(2)),
        (np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3))),
        (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
    ])
    def test_blocks_of_the_wrong_shape_rejected(self, blocks):
        with pytest.raises(ValueError, match="n x n blocks"):
            BergmanForm(*blocks)


class TestCoherentOverlap:
    def test_normalization(self):
        w = np.array([1.3 - 0.2j])
        assert coherent_overlap(Weight.model(1), w, w) == pytest.approx(1.0)

    def test_model_distance_two(self):
        z = np.array([2.0 + 0j])
        w = np.array([0.0 + 0j])
        assert abs(coherent_overlap(Weight.model(1), w, z)) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_overlap_law_random_pairs(self):
        rng = np.random.default_rng(5)
        wgt = Weight.model(2)
        for _ in range(50):
            w, z = cpx(rng, 2, 2)
            got = abs(coherent_overlap(wgt, w, z))
            expect = math.exp(-float(np.sum(np.abs(z - w) ** 2)) / 4.0)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)

    def test_monotone_decay_to_zero(self):
        wgt = Weight.model(1)
        vals = [
            abs(coherent_overlap(wgt, np.array([0j]), np.array([r + 0j])))
            for r in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6


class TestGrowthExponent:
    def test_trivial_symbol_isometry(self):
        rng = np.random.default_rng(6)
        w = random_weight(rng, 2)
        problem = ToeplitzProblem(w, ComplexQuadraticForm.zero(2))
        f = bergman_exponent(problem)
        for _ in range(20):
            pt = cpx(rng, 2)
            assert growth_exponent(f, w, pt) == pytest.approx(0.0, abs=1e-11)

    def test_model_formula(self):
        # (|gamma|^2 - 1)|w|^2 / 2
        for lam, r, expect in ((-0.5, 2.0, -1.5), (0.2, 1.0, 8.0 / 9.0)):
            inst = ModelInstance(1, lam, np.zeros((1, 1)))
            problem = model_problem(inst)
            f = bergman_exponent(problem)
            got = growth_exponent(f, problem.weight, np.array([r + 0j]))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_infinite_when_gate_fails(self):
        f = BergmanForm(np.array([[10.0]]), np.eye(1), np.zeros((1, 1)))
        assert growth_exponent(f, Weight.model(1), np.array([1.0 + 0j])) == math.inf


class TestCriterion:
    def test_trivial_symbol_boundary(self):
        w = Weight.model(1)
        f = bergman_exponent(ToeplitzProblem(w, ComplexQuadraticForm.zero(1)))
        # the bound holds, the strict bound does not
        assert growth_subverdict(f, w).verdict is VerdictClass.BOUNDED_NOT_COMPACT

    def test_compact_model_strict(self):
        problem = model_problem(ModelInstance(1, -0.5, np.zeros((1, 1))))
        f = bergman_exponent(problem)
        assert growth_subverdict(f, problem.weight).verdict is VerdictClass.COMPACT

    def test_unbounded_model_fails(self):
        problem = model_problem(ModelInstance(1, 0.0, np.array([[0.1]])))
        f = bergman_exponent(problem)
        assert growth_subverdict(f, problem.weight).verdict is VerdictClass.UNBOUNDED

    def test_criterion_matches_certificate(self):
        rng = np.random.default_rng(7)
        compared = 0
        for k in range(40):
            problem = random_admissible_problem(rng, 1 + k % 2, damped=(k % 2 == 0))
            v = classify_operator(problem)
            sub_b, sub_c = v.witnesses["bergman"], v.witnesses["certificate"]
            if sub_b.confident and sub_c.confident:
                compared += 1
                assert sub_b.verdict is sub_c.verdict
        assert compared > 20

    def test_sampled_exponent_matches_criterion(self):
        rng = np.random.default_rng(8)
        for k in range(20):
            problem = random_admissible_problem(rng, 1, damped=(k % 2 == 0))
            f = bergman_exponent(problem)
            res = growth_subverdict(f, problem.weight)
            sampled = [
                growth_exponent(f, problem.weight, pt) for pt in cpx(rng, 30, 1)
            ]
            all_nonpositive = all(v <= 1e-9 for v in sampled)
            if res.confident:
                assert (res.verdict is not VerdictClass.UNBOUNDED) == all_nonpositive


class TestClosedFormRealification:
    """The growth matrices against evaluation of the functions they realify."""

    @staticmethod
    def draw(n, seed, pluriharmonic):
        rng = np.random.default_rng(seed)
        f = BergmanForm(cpx(rng, n, n), cpx(rng, n, n), cpx(rng, n, n))
        f.fxx, f.fzz = (f.fxx + f.fxx.T) / 2.0, (f.fzz + f.fzz.T) / 2.0
        return f, random_weight(rng, n, pluriharmonic)

    @staticmethod
    def rel_err(got, ref):
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
    def test_gap_matrix(self, n, seed, pluriharmonic):
        f, w = self.draw(n, seed, pluriharmonic)

        def gap(t):
            x, v = uninterleave(t[: 2 * n]), uninterleave(t[2 * n:])
            return w.value(x) + w.value(v) - 2.0 * f.value(x, np.conj(v)).real

        ref = quadratic_matrix(gap, 4 * n)
        assert self.rel_err(_growth_gap_matrix(f, w), ref) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
    def test_growth_quadratic_part(self, n, seed, pluriharmonic):
        f, w = self.draw(n, seed, pluriharmonic)

        def quad_part(t):
            x = uninterleave(t)
            return 2.0 * (x @ f.fxx @ x).real - 2.0 * w.value(x)

        ref = quadratic_matrix(quad_part, 2 * n)
        assert self.rel_err(_growth_quadratic_matrix(f, w), ref) <= 1e-12
