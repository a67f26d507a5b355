import numpy as np
import pytest

from bargtop.errors import DegeneratePhase
from bargtop.forms import ComplexQuadraticForm, Weight, classify_real_form
from bargtop.symplectic import (
    AntilinearInvolution,
    LinearCanonicalMap,
    PhasePoint,
    QuadraticPhase,
    _involution_closed_hermitian,
    canonical_from_phase,
    graph_point,
    involution_for_weight,
    positivity_certificate,
    symplectic_form_matrix,
    symplectic_product,
)
from bargtop.toeplitz import ToeplitzProblem
from bargtop.verify import canonical_map, random_weight


def model_problem(lam, a_scalar=0.0):
    q = ComplexQuadraticForm(
        np.zeros((1, 1)), lam * np.eye(1), 2.0 * np.array([[a_scalar]])
    )
    return ToeplitzProblem(Weight.model(1), q)


class TestSymplecticProduct:
    def test_canonical_pair(self):
        rho = PhasePoint([1.0], [0.0])
        rho2 = PhasePoint([0.0], [1.0])
        assert symplectic_product(rho, rho2) == pytest.approx(-1.0)

    def test_self_product_vanishes(self):
        rho = PhasePoint([1 + 2j, 3j], [0.5, -1j])
        assert symplectic_product(rho, rho) == 0

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            r1, r2 = PhasePoint(a[:2], a[2:]), PhasePoint(b[:2], b[2:])
            s = symplectic_product(r1, r2) + symplectic_product(r2, r1)
            assert abs(s) < 1e-15 * (1 + np.max(np.abs(a)) * np.max(np.abs(b))) * 10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            symplectic_product(PhasePoint([1.0], [0.0]), PhasePoint([1, 2], [0, 0]))


class TestGraphPoint:
    def test_origin(self):
        pt = graph_point(Weight.model(1), [0.0])
        assert np.all(pt.vec == 0)

    def test_model_at_one(self):
        pt = graph_point(Weight.model(1), [1.0])
        assert pt.xi[0] == pytest.approx(-0.5j)

    def test_model_at_2i(self):
        pt = graph_point(Weight.model(1), [2j])
        assert pt.xi[0] == pytest.approx(-1.0)


class TestInvolution:
    def test_model_closed_form(self):
        iota = involution_for_weight(Weight.model(1))
        rng = np.random.default_rng(1)
        for _ in range(20):
            y, eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            img = iota.apply(PhasePoint([y], [eta]))
            assert img.x[0] == pytest.approx(2 * np.conj(eta) / 1j, abs=1e-14)
            assert img.xi[0] == pytest.approx(np.conj(y) / 2j, abs=1e-14)

    def test_graph_fixed_point_example(self):
        x = 1 + 1j
        pt = PhasePoint([x], [np.conj(x) / 2j])
        iota = involution_for_weight(Weight.model(1))
        assert np.max(np.abs(iota.apply(pt).vec - pt.vec)) < 1e-14

    def test_fixes_graph_generic_weight(self):
        rng = np.random.default_rng(2)
        w = Weight(np.array([[0.25]]), np.array([[0.1]]))
        iota = involution_for_weight(w)
        for _ in range(100):
            x = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            pt = graph_point(w, x)
            assert np.max(np.abs(iota.apply(pt).vec - pt.vec)) < 1e-12 * (1 + np.max(np.abs(pt.vec)))

    def test_involution_and_antilinearity(self):
        rng = np.random.default_rng(3)
        for k in range(10):
            w = random_weight(rng, 2, pluriharmonic=(k % 2 == 0))
            iota = involution_for_weight(w)
            assert iota.involution_residual() < 1e-12
            rho = PhasePoint(rng.standard_normal(2) + 1j * rng.standard_normal(2),
                             rng.standard_normal(2) + 1j * rng.standard_normal(2))
            c = complex(*rng.standard_normal(2))
            lhs = iota.apply(PhasePoint.from_vec(c * rho.vec)).vec
            rhs = np.conj(c) * iota.apply(rho).vec
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_construction_routes_agree(self):
        rng = np.random.default_rng(4)
        for k in range(10):
            w = random_weight(rng, 2, pluriharmonic=(k % 2 == 0))
            direct = involution_for_weight(w)
            # T^{-1} iota_model conj(T), T the map to the normal form
            t, t_inv = ToeplitzProblem(w, ComplexQuadraticForm.zero(2)).normal_map()
            model = _involution_closed_hermitian(np.eye(2) / 4.0)
            assert np.max(np.abs(direct.m - t_inv @ model.m @ np.conj(t))) < 1e-12
            if w.is_hermitian:
                closed = _involution_closed_hermitian(w.h)
                assert np.max(np.abs(direct.m - closed.m)) < 1e-12

    def test_invalid_involution_rejected(self):
        with pytest.raises(ValueError):
            AntilinearInvolution(2 * np.eye(2))


class TestShear:
    def test_moves_graph_onto_hermitian_graph(self):
        # the normal map T, the pluriharmonic shear followed by the frame,
        # carries the graph over x onto that of |x|^2/4 over M x
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            for pluriharmonic in (False, True):
                w = random_weight(rng, n, pluriharmonic=pluriharmonic)
                problem = ToeplitzProblem(w, ComplexQuadraticForm.zero(n))
                t, _ = problem.normal_map()
                for _ in range(30):
                    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    moved = t @ graph_point(w, x).vec
                    target = graph_point(Weight.model(n), problem.frame @ x).vec
                    assert np.max(np.abs(moved - target)) < 1e-14 * np.max(np.abs(target))


class TestCanonicalFromPhase:
    def test_trivial_symbol_gives_identity(self):
        k = canonical_map(model_problem(0.0))
        assert np.allclose(k.k, np.eye(2), atol=1e-14)

    def test_model_closed_form(self):
        # gamma = 1/2: (y, eta) -> (2y, eta/2)
        k = canonical_map(model_problem(-0.5))
        assert np.allclose(k.k, np.diag([2.0, 0.5]), atol=1e-14)

    def test_generic_model_matches_gamma_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            lam = complex(rng.uniform(-1.5, 0.2), rng.uniform(-1, 1))
            a = complex(*(0.05 * rng.standard_normal(2)))
            if 0.25 - lam.real - abs(a) < 0.01:
                continue
            g = 1.0 / (1.0 - 2.0 * lam)
            expect = np.array([[1.0 / g, -8j * g * a], [0.0, g]])
            k = canonical_map(model_problem(lam, a))
            assert np.max(np.abs(k.k - expect)) < 1e-12

    def test_graph_relations(self):
        # the image of (y, -F'_y) is (x, F'_x) with F'_theta = 0
        problem = model_problem(0.1 + 0.2j, 0.03)
        from bargtop.verify import build_phase

        phase = build_phase(problem)
        k = canonical_from_phase(phase)
        rng = np.random.default_rng(7)
        for _ in range(20):
            y, eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x, xi = k.apply(np.array([y, eta]))
            # recover theta from the eliminated system
            a = np.array([[phase.block("t", "x")[0, 0], phase.block("t", "t")[0, 0]],
                          [phase.block("y", "x")[0, 0], phase.block("y", "t")[0, 0]]])
            rhs = np.array([-phase.block("t", "y")[0, 0] * y,
                            -phase.block("y", "y")[0, 0] * y - eta])
            x2, theta = np.linalg.solve(a, rhs)
            assert x2 == pytest.approx(x, abs=1e-12)
            fx = (phase.block("x", "x")[0, 0] * x + phase.block("x", "y")[0, 0] * y
                  + phase.block("x", "t")[0, 0] * theta)
            assert fx == pytest.approx(xi, abs=1e-12)

    def test_degenerate_phase_raises(self):
        hess = np.zeros((3, 3), dtype=complex)
        hess[0, 1] = hess[1, 0] = 1.0  # F = xy: no theta dependence at all
        with pytest.raises(DegeneratePhase):
            canonical_from_phase(QuadraticPhase(1, hess))

    def test_every_map_is_symplectic(self):
        rng = np.random.default_rng(8)
        from bargtop.verify import random_admissible_problem

        for k in range(20):
            problem = random_admissible_problem(rng, 1 + k % 2, pluriharmonic=(k % 3 == 0))
            assert canonical_map(problem).symplectic_residual() < 1e-12

    def test_non_symplectic_rejected(self):
        with pytest.raises(ValueError, match="symplectic"):
            LinearCanonicalMap(np.diag([2.0, 2.0]))


class TestPositivityCertificate:
    def test_identity_map_is_neutral(self):
        iota = involution_for_weight(Weight.model(1))
        cert = positivity_certificate(LinearCanonicalMap(np.eye(2)), iota)
        assert cert.classification == "semidefinite"
        assert np.max(np.abs(cert.pmat)) < 1e-14

    def test_model_compact_margin(self):
        # lam = -1/2: the form is (3/2)(|y|^2 + |eta|^2)
        iota = involution_for_weight(Weight.model(1))
        cert = positivity_certificate(canonical_map(model_problem(-0.5)), iota)
        assert cert.classification == "definite"
        assert cert.margin == pytest.approx(1.5, abs=1e-12)
        assert np.allclose(cert.eigenvalues, 1.5, atol=1e-12)

    def test_model_unbounded(self):
        iota = involution_for_weight(Weight.model(1))
        cert = positivity_certificate(canonical_map(model_problem(0.2)), iota)
        assert cert.classification == "indefinite"
        assert cert.margin < -1e-3

    def test_base_form_is_real_and_explicit(self):
        rng = np.random.default_rng(9)
        iota = involution_for_weight(Weight.model(1))
        for _ in range(50):
            y, eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rho = PhasePoint([y], [eta])
            val = symplectic_product(rho, iota.apply(rho)) / 1j
            assert abs(val.imag) < 1e-12 * (1 + abs(y) ** 2 + abs(eta) ** 2)
            assert val.real == pytest.approx(0.5 * abs(y) ** 2 - 2 * abs(eta) ** 2, abs=1e-13)

    def test_certificate_value_matches_definition(self):
        rng = np.random.default_rng(10)
        w = random_weight(rng, 2)
        iota = involution_for_weight(w)
        from bargtop.verify import random_admissible_problem

        problem = random_admissible_problem(rng, 2)
        problem = ToeplitzProblem(w, problem.q) if problem.weight.n == 2 else problem
        kmap = canonical_map(ToeplitzProblem(w, (0.05 + 0j) * problem.q))
        cert = positivity_certificate(kmap, iota)
        for _ in range(20):
            rho = PhasePoint(rng.standard_normal(2) + 1j * rng.standard_normal(2),
                             rng.standard_normal(2) + 1j * rng.standard_normal(2))
            img = kmap.apply(rho)
            direct = (symplectic_product(img, iota.apply(img))
                      - symplectic_product(rho, iota.apply(rho))) / 1j
            assert cert.value(rho) == pytest.approx(direct.real, rel=1e-10, abs=1e-10)
        # one eigendecomposition, labelled as the matrix itself is
        assert np.array_equal(cert.pmat, cert.pmat.T)
        assert np.array_equal(cert.eigenvalues, np.linalg.eigvalsh(cert.pmat))
        assert (cert.classification, cert.margin, cert.scale) == classify_real_form(cert.pmat)

    def test_j_matrix_convention(self):
        j = symplectic_form_matrix(2)
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        r1, r2 = PhasePoint(a[:2], a[2:]), PhasePoint(b[:2], b[2:])
        assert r1.vec @ j @ r2.vec == pytest.approx(symplectic_product(r1, r2))
