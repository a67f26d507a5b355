import numpy as np
import pytest

from bargtop.errors import InadmissibleProblem
from bargtop.model import (
    ModelInstance,
    classify_model,
    closed_form_map,
    detect_model,
    model_problem,
    model_subverdict,
    positivity_coefficients,
)
from bargtop.toeplitz import VerdictClass, classify_operator
from bargtop.verify import canonical_map, random_admissible_problem


def sym(rng, n, scale=0.05):
    b = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (b + b.T) / 2


class TestClassifyModel:
    def test_gamma_one_with_shear_is_unbounded(self):
        v = classify_model(ModelInstance(1, 0.0, np.array([[0.1]])))
        assert v.verdict is VerdictClass.UNBOUNDED

    def test_identity_operator_is_boundary(self):
        v = classify_model(ModelInstance(1, 0.0, np.zeros((1, 1))))
        assert v.verdict is VerdictClass.BOUNDED_NOT_COMPACT
        assert v.margin == pytest.approx(0.0, abs=1e-15)

    def test_imaginary_lambda_always_compact(self):
        # |gamma|^2 = 1/5, threshold (1-|g|^2)/|g|^2 = 4 > 4 ||A|| for ||A|| < 1/4
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = sym(rng, 2)
            inst = ModelInstance(2, 1j, a)
            assert inst.is_admissible
            assert classify_model(inst).verdict is VerdictClass.COMPACT

    def test_inadmissible_raises(self):
        with pytest.raises(InadmissibleProblem):
            classify_model(ModelInstance(1, 0.3, np.zeros((1, 1))))


class TestClosedFormMap:
    def test_identity(self):
        k = closed_form_map(ModelInstance(1, 0.0, np.zeros((1, 1))))
        assert np.allclose(k.k, np.eye(2))

    def test_gamma_half(self):
        k = closed_form_map(ModelInstance(1, -0.5, np.zeros((1, 1))))
        assert np.allclose(k.k, np.diag([2.0, 0.5]))

    def test_pure_shear(self):
        a = 0.05
        k = closed_form_map(ModelInstance(1, 0.0, np.array([[a]])))
        assert np.allclose(k.k, np.array([[1.0, -8j * a], [0.0, 1.0]]))

    def test_matches_pipeline_on_random_instances(self):
        rng = np.random.default_rng(1)
        done = 0
        while done < 100:
            n = 1 + done % 2
            lam = complex(rng.uniform(-1.5, 0.2), rng.uniform(-1, 1))
            inst = ModelInstance(n, lam, sym(rng, n))
            if not inst.is_admissible:
                continue
            done += 1
            k1 = closed_form_map(inst)
            k2 = canonical_map(model_problem(inst))
            assert np.max(np.abs(k1.k - k2.k)) < 1e-12


class TestPositivityCoefficients:
    def test_gamma_half_values(self):
        a, b, c, ok = positivity_coefficients(ModelInstance(1, -0.5, np.array([[0.7]])))
        assert abs(a) == pytest.approx(8.0 / 3.0, abs=1e-14)
        assert b == pytest.approx(16.0 / 3.0, abs=1e-13)
        assert c == pytest.approx(1.0, abs=1e-15)
        assert abs(a) ** 2 - b == pytest.approx(16.0 / 9.0, abs=1e-13)
        assert ok  # 9/16 >= 0.49

    def test_requires_contracting_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            positivity_coefficients(ModelInstance(1, 0.0, np.zeros((1, 1))))

    def test_verdict_equals_threshold_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            lam = complex(rng.uniform(-2, 0.2), rng.uniform(-1.5, 1.5))
            inst = ModelInstance(1, lam, sym(rng, 1, 0.08))
            if not inst.is_admissible or abs(inst.gamma) >= 1:
                continue
            *_, ok = positivity_coefficients(inst)
            g2 = abs(inst.gamma) ** 2
            assert ok == (4 * inst.norm_a <= (1 - g2) / g2)


class TestNormA:
    def test_takagi_consistency(self):
        # sup over |w| = 1 of |A conj(w).conj(w)| equals the largest singular value
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = sym(rng, 2, 1.0)
            inst = ModelInstance(2, -5.0, a)
            # sampled sphere never exceeds ||A||
            best = 0.0
            for _ in range(4000):
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                v /= np.linalg.norm(v)
                best = max(best, abs(np.conj(v) @ a @ np.conj(v)))
            assert best <= inst.norm_a + 1e-12
            # the Takagi factor A = Q S Q^T gives the exact maximizer w = Q e_1
            u, s, vh = np.linalg.svd(a)
            d = np.diag(u.conj().T @ np.conj(vh.conj().T))
            q = u @ np.diag(np.sqrt(d))
            assert np.max(np.abs(q @ np.diag(s) @ q.T - a)) < 1e-12
            w = q[:, 0]
            val = abs(np.conj(w) @ a @ np.conj(w))
            assert val == pytest.approx(inst.norm_a, abs=1e-6)
            assert best == pytest.approx(inst.norm_a, abs=2e-2 * inst.norm_a)


class TestConstruction:
    @pytest.mark.parametrize("lam, a", [
        (1.0, [[np.nan]]),
        (1.0, [[np.inf]]),
        (complex(np.nan, 0.0), [[0.1]]),
        (complex(0.0, -np.inf), [[0.1]]),
    ])
    def test_non_finite_input_rejected(self, lam, a):
        with pytest.raises(ValueError, match="finite"):
            ModelInstance(1, lam, a)

    def test_one_svd_per_instance(self, monkeypatch):
        svd, calls = np.linalg.svd, []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        inst = ModelInstance(2, -0.3 + 0.1j, sym(np.random.default_rng(6), 2))
        assert len(calls) == 1 and calls[0] is inst.a
        classify_model(inst)
        model_subverdict(inst)
        closed_form_map(inst)
        positivity_coefficients(inst)
        assert (inst.gamma, inst.admissibility_margin) == (
            1 / (1 - 2 * inst.lam), 0.25 - inst.lam.real - inst.norm_a)
        assert len(calls) == 1

    def test_gamma_at_lambda_one_half(self):
        # 1 - 2 lam vanishes; the instance exists and is inadmissible
        inst = ModelInstance(1, 0.5, [[0.1]])
        assert not inst.is_admissible and np.isinf(abs(inst.gamma))
        with pytest.raises(InadmissibleProblem):
            classify_model(inst)


class TestDetectAndPipeline:
    def test_detects_model_problems(self):
        inst = ModelInstance(2, 0.1j - 0.2, sym(np.random.default_rng(4), 2))
        got = detect_model(model_problem(inst))
        assert got is not None
        assert got.lam == pytest.approx(inst.lam)
        assert np.allclose(got.a, inst.a)

    def test_rejects_generic_problems(self):
        rng = np.random.default_rng(5)
        assert detect_model(random_admissible_problem(rng, 1)) is None

    def test_pipeline_agreement_small_grid(self):
        for re in np.linspace(-1.5, 0.2, 9):
            for na in (0.0, 0.1):
                inst = ModelInstance(1, complex(re, 0.5), np.array([[na]]))
                if not inst.is_admissible:
                    continue
                closed = classify_model(inst)
                full = classify_operator(model_problem(inst))
                if abs(closed.margin) > 1e-8 and abs(full.margin) > 1e-8:
                    assert closed.verdict is full.verdict
