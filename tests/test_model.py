import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from bargtop.toeplitz import AGREEMENT_BAND, VerdictClass, classify_operator
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


def three_way_rule(inst):
    """The margin's verdict by the rule model_subverdict once spelled out:
    compact above AGREEMENT_BAND * scale, unbounded below its negative, and
    bounded, not compact, between them or for a margin that is not a
    number."""
    g2 = abs(inst.gamma) ** 2
    threshold = (1.0 - g2) / g2
    m = float(threshold - 4.0 * inst.norm_a)
    scale = max(1.0, abs(threshold), 4.0 * inst.norm_a)
    if m > AGREEMENT_BAND * scale:
        return VerdictClass.COMPACT
    if m < -AGREEMENT_BAND * scale:
        return VerdictClass.UNBOUNDED
    return VerdictClass.BOUNDED_NOT_COMPACT


def band_edge(inst, side):
    """The two adjacent doubles of ||A|| between which the three-way rule
    leaves (side +1) or enters (side -1) its confident class, by bisection
    on the bits of non-negative doubles, where their order is the
    integers'."""
    outside = VerdictClass.COMPACT if side > 0 else VerdictClass.UNBOUNDED

    def crossed(bits):
        inst.norm_a = float(np.int64(bits).view(np.float64))
        return (three_way_rule(inst) is outside) != (side > 0)

    lo, hi = 0, int(np.float64(1e300).view(np.int64))
    assert not crossed(lo) and crossed(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if crossed(mid) else (mid, hi)
    return [float(np.int64(b).view(np.float64)) for b in (lo, hi)]


class TestModelSubverdict:
    @settings(max_examples=200, deadline=None)
    @given(lam=st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
           a=st.floats(0.0, 10.0), edge=st.sampled_from(["none", "compact", "unbounded", "nan"]))
    @example(lam=0.5, a=0.1, edge="none")  # gamma is infinite: the margin is not a number
    @example(lam=-1.0, a=0.0, edge="compact")
    def test_label_is_the_three_way_rule(self, lam, a, edge):
        inst = ModelInstance(1, lam, [[a]])
        norms = [inst.norm_a]
        if edge == "nan":
            norms = [math.nan]
        elif edge != "none":
            g2 = abs(inst.gamma) ** 2
            if not g2 < 1.0 / (1.0 + 1e-6):  # no margin above the band at ||A|| = 0
                return
            norms = band_edge(inst, 1 if edge == "compact" else -1)
        labels = []
        for norm in norms:
            inst.norm_a = norm
            sub = model_subverdict(inst)
            assert sub.verdict is three_way_rule(inst)
            labels.append(sub.verdict)
        if edge in ("compact", "unbounded"):
            # one ulp of ||A|| apart, on the two sides of the band
            assert labels[0] is not labels[1]


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
        from bargtop import _lapack

        svd, calls = _lapack.svdvals, []

        def counting(m):
            calls.append(m)
            return svd(m)

        monkeypatch.setattr(_lapack, "svdvals", counting)
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
