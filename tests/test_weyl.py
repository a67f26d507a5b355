import numpy as np
import pytest

from bargtop.errors import ResolventSingular
from bargtop.forms import ComplexQuadraticForm, Weight, classify_real_form, real_part_matrix
from bargtop.model import ModelInstance, model_problem
from bargtop.oracle import weyl_convolutions
from bargtop.toeplitz import DEFINITENESS_VERDICT, ToeplitzProblem, VerdictClass, classify_operator
from bargtop.verify import random_admissible_lambda, random_admissible_problem
from bargtop.weyl import symbol_subverdict, weyl_symbol


def scalar_problem(lam):
    return model_problem(ModelInstance(1, lam, np.zeros((1, 1))))


class TestWeylSymbol:
    def test_trivial_symbol(self):
        ws = weyl_symbol(ToeplitzProblem(Weight.model(2), ComplexQuadraticForm.zero(2)))
        assert ws.prefactor_modulus == pytest.approx(1.0)
        assert np.max(np.abs(ws.g.qxx)) == 0
        assert np.max(np.abs(ws.g.qxbx)) == 0
        assert np.max(np.abs(ws.g.qxbxb)) == 0
        assert symbol_subverdict(ws).verdict is VerdictClass.BOUNDED_NOT_COMPACT

    def test_scalar_heat_flow_identity(self):
        # exp(d_x d_xbar) e^{lam x xbar} = (1-lam)^{-1} e^{lam x xbar/(1-lam)}
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam = random_admissible_lambda(rng)
            ws = weyl_symbol(scalar_problem(lam))
            assert ws.g.qxbx[0, 0] == pytest.approx(lam / (1 - lam), abs=1e-12)
            assert abs(ws.g.qxx[0, 0]) < 1e-14 and abs(ws.g.qxbxb[0, 0]) < 1e-14
            assert ws.prefactor_modulus == pytest.approx(1 / abs(1 - lam), abs=1e-10)

    def test_decaying_example(self):
        ws = weyl_symbol(scalar_problem(-0.5))
        assert ws.g.qxbx[0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-14)
        assert ws.prefactor_modulus == pytest.approx(2.0 / 3.0, abs=1e-14)
        x = np.array([1.0 + 0j])
        assert ws.evaluate(x) == pytest.approx((2 / 3) * np.exp(-1 / 3), abs=1e-14)
        assert symbol_subverdict(ws).verdict is VerdictClass.COMPACT

    def test_growing_example(self):
        ws = weyl_symbol(scalar_problem(0.2))
        assert ws.g.qxbx[0, 0] == pytest.approx(0.25, abs=1e-14)
        assert symbol_subverdict(ws).verdict is VerdictClass.UNBOUNDED

    def test_resolvent_singular_reported(self):
        # lam = 4h = 1 makes the scalar resolvent vanish; inadmissible as an
        # operator, so drive the resolvent directly through a fake problem
        problem = ToeplitzProblem(
            Weight.model(1),
            ComplexQuadraticForm(np.zeros((1, 1)), np.array([[0.2]]), np.zeros((1, 1))),
        )
        problem.q = ComplexQuadraticForm(
            np.zeros((1, 1)), np.array([[1.0 + 0j]]), np.zeros((1, 1))
        )
        with pytest.raises(ResolventSingular):
            weyl_symbol(problem)


class TestEquivalences:
    def test_sign_matches_gamma_circle(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            lam = random_admissible_lambda(rng)
            verdict = symbol_subverdict(weyl_symbol(scalar_problem(lam))).verdict
            gamma = 1 / (1 - 2 * lam)
            assert verdict is (VerdictClass.COMPACT if abs(gamma) < 1 else VerdictClass.UNBOUNDED)

    @pytest.mark.parametrize("lam", [-0.5, 0.0, 0.2])
    def test_subverdict_reads_the_same_label(self, lam):
        # the sub-verdict reads the sign class of -Re g, margin and scale
        # included; Re g = Re(lam / (1 - lam)) |x|^2 on the scalar family
        symbol = weyl_symbol(scalar_problem(lam))
        label, margin, scale = classify_real_form(-real_part_matrix(symbol.g))
        sub = symbol_subverdict(symbol)
        assert (sub.method, sub.margin, sub.scale) == ("weyl", margin, scale)
        assert sub.verdict is DEFINITENESS_VERDICT[label]
        coeff = (lam / (1 - lam)).real
        assert sub.verdict is (VerdictClass.COMPACT if coeff < 0 else VerdictClass.UNBOUNDED
                               if coeff > 0 else VerdictClass.BOUNDED_NOT_COMPACT)

    def test_arithmetic_equivalence(self):
        # |2 lam - 1| >= 1  <=>  Re(lam/(1-lam)) <= 0
        rng = np.random.default_rng(2)
        for _ in range(200):
            lam = complex(rng.uniform(-3, 0.9), rng.uniform(-2, 2))
            if abs(1 - lam) < 1e-6:
                continue
            lhs = abs(2 * lam - 1) >= 1
            rhs = (lam / (1 - lam)).real <= 0
            assert lhs == rhs

    def test_matches_certificate_on_random_instances(self):
        rng = np.random.default_rng(3)
        compared = 0
        for k in range(60):
            problem = random_admissible_problem(
                rng, 1 + k % 2, pluriharmonic=(k % 5 == 0), damped=(k % 2 == 0)
            )
            v = classify_operator(problem)
            sub_w, sub_c = v.witnesses["weyl"], v.witnesses["certificate"]
            if sub_w.confident and sub_c.confident:
                compared += 1
                assert sub_w.verdict is sub_c.verdict
        assert compared > 30


class TestQuadratureConsistency:
    def test_model_values(self):
        p = scalar_problem(-0.5)
        ws = weyl_symbol(p)
        assert weyl_convolutions(p, [[0.0]])[0] == pytest.approx(2 / 3, abs=1e-9)
        got = weyl_convolutions(p, [[1.0]])[0]
        assert got == pytest.approx(ws.evaluate(np.array([1.0 + 0j])), rel=1e-8)

    def test_random_instances_pointwise(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            problem = random_admissible_problem(rng, 1, damped=True)
            ws = weyl_symbol(problem)
            x = rng.uniform(-1.4, 1.4, 1) + 1j * rng.uniform(-1.4, 1.4, 1)
            ref = ws.evaluate(x)
            got = weyl_convolutions(problem, [x])[0]
            assert abs(got - ref) / abs(ref) < 1e-6

    def test_verdict_agreement_is_exercised(self):
        # classification by symbol sign equals pipeline verdict for the family
        for lam, expect in ((-0.5, VerdictClass.COMPACT), (0.2, VerdictClass.UNBOUNDED)):
            v = classify_operator(scalar_problem(lam))
            assert v.verdict is expect
            assert v.witnesses["weyl"].verdict is expect
