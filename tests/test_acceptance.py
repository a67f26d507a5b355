"""Acceptance suite: each test prints one pass/fail line and enforces the
stated tolerance.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from bargtop.bergman import (
    bergman_exponent,
    coherent_overlap,
    growth_subverdict,
)
from bargtop.errors import DisagreementError
from bargtop.forms import ComplexQuadraticForm, Weight
from bargtop.model import ModelInstance, classify_model, model_problem
from bargtop.oracle import coherent_norms, singular_decay, truncated_matrix
from bargtop.symplectic import (
    PhasePoint,
    graph_point,
    involution_for_weight,
    symplectic_product,
)
from bargtop.toeplitz import (
    ToeplitzProblem,
    VerdictClass,
    classify_operator,
)
from bargtop.verify import (
    canonical_map,
    factorization_residual,
    random_admissible_lambda,
    random_admissible_problem,
    random_weight,
)
from bargtop.weyl import symbol_subverdict, weyl_symbol


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def grid_instances():
    for re_lam in np.linspace(-2.0, 0.24, 101):
        for im_lam in (0.0, 0.5, 1.0):
            for norm_a in (0.0, 0.05, 0.1, 0.15, 0.2):
                yield ModelInstance(
                    1, complex(float(re_lam), im_lam), np.array([[norm_a]])
                )


def test_criterion_1_phase_diagram():
    start = time.perf_counter()
    compared = skipped = 0
    for inst in grid_instances():
        verdict = classify_operator(model_problem(inst))
        if not inst.is_admissible:
            assert verdict.verdict is VerdictClass.INADMISSIBLE
            continue
        closed = classify_model(inst)
        if abs(closed.margin) > 1e-8 and abs(verdict.margin) > 1e-8:
            compared += 1
            assert closed.verdict is verdict.verdict, (
                f"lam={inst.lam}, ||A||={inst.norm_a}: "
                f"pipeline {verdict.verdict} vs closed {closed.verdict}"
            )
        else:
            skipped += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and compared > 1000
    report(1, "phase diagram", ok,
           f"{compared} points agree, {skipped} in band, {elapsed:.1f}s single-threaded")


def test_criterion_2_diagonal_law():
    worst = 0.0
    for lam in (-0.5, 1j, 0.2):
        inst = ModelInstance(1, lam, np.zeros((1, 1)))
        top = truncated_matrix(model_problem(inst), 40)
        eigs = np.linalg.eigvals(top.t)
        expect = inst.gamma ** np.arange(1, 41)
        order_e = np.argsort(-np.abs(eigs))
        order_x = np.argsort(-np.abs(expect))
        rel = float(np.max(np.abs(eigs[order_e] - expect[order_x]) / np.abs(expect[order_x])))
        worst = max(worst, rel)
    norm_err = abs(
        truncated_matrix(model_problem(ModelInstance(1, -0.5, np.zeros((1, 1)))), 40).spectral_norm()
        - 0.5
    )
    ok = worst < 1e-10 and norm_err < 1e-9
    report(2, "diagonal law", ok,
           f"max relative eigenvalue error {worst:.2e}, norm error {norm_err:.2e}")


def test_criterion_3_mehler_cross_check():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        lam = random_admissible_lambda(rng)
        problem = model_problem(ModelInstance(1, lam, np.zeros((1, 1))))
        symbol = weyl_symbol(problem)
        worst = max(worst, abs(symbol.g.qxbx[0, 0] - lam / (1 - lam)))
        gamma = 1 / (1 - 2 * lam)
        verdict = symbol_subverdict(symbol).verdict
        want = VerdictClass.COMPACT if abs(gamma) < 1 else VerdictClass.UNBOUNDED
        assert verdict is want, f"lam={lam}: {verdict.value} but |gamma|={abs(gamma)}"
        assert (abs(2 * lam - 1) >= 1) == ((lam / (1 - lam)).real <= 0)
    ok = worst < 1e-12
    report(3, "Mehler cross-check", ok, f"max coefficient error {worst:.2e} over 20 draws")


def test_criterion_4_bergman_identity():
    rng = np.random.default_rng(7)
    # trivial symbol: f equals the polarization of the weight
    worst_triv = 0.0
    for n in (1, 2):
        w = random_weight(rng, n)
        f = bergman_exponent(ToeplitzProblem(w, ComplexQuadraticForm.zero(n)))
        psi = w.as_form()
        for _ in range(50):
            x, z = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
            worst_triv = max(worst_triv, abs(f.value(x, z) - psi.polar_value(x, z)))
    # model family blocks
    worst_model = 0.0
    for _ in range(25):
        lam = random_admissible_lambda(rng, re_range=(-1.5, 0.2), im_range=(-1, 1))
        b = 0.04 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        inst = ModelInstance(2, lam, (b + b.T) / 2)
        if not inst.is_admissible:
            continue
        g = inst.gamma
        f = bergman_exponent(model_problem(inst))
        worst_model = max(
            worst_model,
            float(np.max(np.abs(f.fxz - g / 4 * np.eye(2)))),
            float(np.max(np.abs(f.fzz - g * g * inst.a))),
            float(np.max(np.abs(f.fxx))),
        )
    # criterion verdict equals the closed-form verdict on the grid
    mismatches = 0
    compared = 0
    for inst in grid_instances():
        if not inst.is_admissible:
            continue
        closed = classify_model(inst)
        if abs(closed.margin) <= 1e-8:
            continue
        problem = model_problem(inst)
        f = bergman_exponent(problem)
        res = growth_subverdict(f, problem.weight)
        if abs(res.margin) <= 1e-8 * max(res.scale, 1.0):
            continue
        compared += 1
        want_bounded = closed.verdict in (VerdictClass.COMPACT, VerdictClass.BOUNDED_NOT_COMPACT)
        want_compact = closed.verdict is VerdictClass.COMPACT
        bounded = res.verdict is not VerdictClass.UNBOUNDED
        if bounded != want_bounded or (res.verdict is VerdictClass.COMPACT) != want_compact:
            mismatches += 1
    ok = worst_triv <= 1e-14 and worst_model <= 1e-12 and mismatches == 0 and compared > 1000
    report(4, "coherent exponent identity", ok,
           f"trivial {worst_triv:.2e}, model blocks {worst_model:.2e}, "
           f"{compared} grid points, {mismatches} mismatches")


def test_criterion_5_mixed_block_determinant():
    rng = np.random.default_rng(11)
    worst = math.inf
    for _ in range(100):
        f = bergman_exponent(random_admissible_problem(rng, 2))
        worst = min(worst, f.scaled_mixed_det())
    ok = worst > 1e-10
    report(5, "mixed-block determinant", ok, f"min scaled |det| {worst:.2e} over 100 draws")


def test_criterion_6_geometry_suite():
    rng = np.random.default_rng(13)
    worst_inv = worst_fix = worst_symp = worst_fact = worst_real = 0.0
    for k in range(20):
        n = 1 + k % 2
        w = random_weight(rng, n, pluriharmonic=(k % 2 == 0))
        iota = involution_for_weight(w)
        worst_inv = max(worst_inv, iota.involution_residual())
        for _ in range(5):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            pt = graph_point(w, x)
            err = np.max(np.abs(iota.apply(pt).vec - pt.vec)) / (1 + np.max(np.abs(pt.vec)))
            worst_fix = max(worst_fix, float(err))
        rho = PhasePoint(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                         rng.standard_normal(n) + 1j * rng.standard_normal(n))
        val = symplectic_product(rho, iota.apply(rho)) / 1j
        worst_real = max(worst_real, abs(val.imag) / (1 + np.max(np.abs(rho.vec)) ** 2))
    # 100 graph fixed points on one weight
    w = random_weight(rng, 2, pluriharmonic=True)
    iota = involution_for_weight(w)
    for _ in range(100):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pt = graph_point(w, x)
        err = np.max(np.abs(iota.apply(pt).vec - pt.vec)) / (1 + np.max(np.abs(pt.vec)))
        worst_fix = max(worst_fix, float(err))
    for k in range(50):
        problem = random_admissible_problem(rng, 1 + k % 2, pluriharmonic=True)
        kmap = canonical_map(problem)
        worst_symp = max(worst_symp, kmap.symplectic_residual())
        worst_fact = max(worst_fact, factorization_residual(problem))
    ok = max(worst_inv, worst_fix, worst_symp, worst_fact, worst_real) <= 1e-12
    report(6, "geometry suite", ok,
           f"involution {worst_inv:.1e}, fixed-point {worst_fix:.1e}, "
           f"symplectic {worst_symp:.1e}, factorization {worst_fact:.1e}, "
           f"realness {worst_real:.1e}")


def test_criterion_7_coherent_state_norms():
    radii = np.array([1.0, 2.0, 4.0])
    slopes = {}
    for lam, expect in ((-0.5, -0.1875), (0.2, (1 / 0.36 - 1) / 4)):
        problem = model_problem(ModelInstance(1, lam, np.zeros((1, 1))))
        logs = np.log(coherent_norms(problem, [[r] for r in radii]))
        slope = float(np.polyfit(radii ** 2, logs, 1)[0])
        slopes[lam] = (slope, expect)
        assert abs(slope - expect) <= 0.01 * abs(expect), (lam, slope, expect)
    rng = np.random.default_rng(17)
    wgt = Weight.model(1)
    worst = 0.0
    for _ in range(50):
        w, z = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        got = abs(coherent_overlap(wgt, w, z))
        expect = math.exp(-float(np.sum(np.abs(z - w) ** 2)) / 4)
        worst = max(worst, abs(got - expect) / expect)
    ok = worst <= 1e-12
    detail = ", ".join(
        f"lam={lam}: slope {s:.5f} (want {e:.5f})" for lam, (s, e) in slopes.items()
    )
    report(7, "coherent-state norms", ok, f"{detail}, overlap law error {worst:.1e}")


def test_criterion_8_compactness_evidence():
    details = []
    ok = True
    for lam in (-0.5, 1j):
        inst = ModelInstance(1, lam, np.zeros((1, 1)))
        est = singular_decay(model_problem(inst), 40)
        expect = abs(inst.gamma)
        ok = ok and abs(est.ratio - expect) <= 0.05 * expect
        details.append(f"lam={lam}: ratio {est.ratio:.4f} (want {expect:.4f})")
    trivial = ToeplitzProblem(Weight.model(1), ComplexQuadraticForm.zero(1))
    est = singular_decay(trivial, 40)
    verdict = classify_operator(trivial)
    ok = ok and abs(est.ratio - 1.0) <= 0.01
    ok = ok and verdict.verdict is VerdictClass.BOUNDED_NOT_COMPACT
    details.append(f"trivial: ratio {est.ratio:.4f}, verdict {verdict.verdict.value}")
    report(8, "compactness evidence", ok, "; ".join(details))


def test_criterion_9_disagreement_guard():
    conflicts = 0
    instances = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for k in range(16):
            problem = random_admissible_problem(
                rng, 1 + k % 2, pluriharmonic=(k % 4 == 0), damped=(k % 2 == 0)
            )
            instances += 1
            try:
                verdict = classify_operator(problem)
            except DisagreementError:
                conflicts += 1
                continue
            for sub in verdict.witnesses.values():
                if sub.confident and sub.verdict is not VerdictClass.BOUNDED_NOT_COMPACT:
                    assert sub.verdict is verdict.verdict
    ok = conflicts == 0
    report(9, "disagreement guard", ok,
           f"{instances} instances over seeds 0-9, {conflicts} conflicts")
