"""Cross-validation suites: every closed-form route checked against an
independent construction or against brute force, with explicit margins.

The general-weight constructions (:func:`build_phase`,
:func:`canonical_map`, :func:`coherent_route_map`) live here as the
references for the normal-form kernels that classify uses.  The suites
double as the randomized instance generators used by the test suite; all
randomness is seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure
from .forms import ComplexQuadraticForm, Weight, real_part_matrix
from .symplectic import (
    LinearCanonicalMap,
    PhasePoint,
    QuadraticPhase,
    _involution_closed_hermitian,
    canonical_from_phase,
    graph_point,
    involution_for_weight,
    normal_involution,
    positivity_certificate,
    symplectic_product,
)
from .toeplitz import ToeplitzProblem, normal_phase
from . import bergman, model, oracle, weyl

__all__ = [
    "build_phase",
    "canonical_map",
    "coherent_route_map",
    "Check",
    "SuiteResult",
    "SUITES",
    "run_suites",
    "random_weight",
    "random_admissible_problem",
    "random_admissible_lambda",
    "factorization_residual",
]


# ---------------------------------------------------------------------------
# general-weight references

def build_phase(problem: ToeplitzProblem) -> QuadraticPhase:
    """Quadratic phase F(x, y, theta) of the operator kernel.

    F = (2/i)(Psi(x, theta) - Psi(y, theta)) + (1/i) Q(y, theta) with Psi,
    Q the polarizations of the weight and the symbol exponent.
    """
    problem.require_admissible()
    h, p, q = problem.weight.h, problem.weight.p, problem.q
    z = np.zeros_like(h)
    fxt, fyt = -2j * h.T, 2j * h.T - 1j * q.qxbx.T
    return QuadraticPhase(problem.n, np.block([
        [-2j * p, z, fxt],
        [z, 2j * p - 1j * q.qxx, fyt],
        [fxt.T, fyt.T, -1j * q.qxbxb],
    ]))


def canonical_map(problem: ToeplitzProblem) -> LinearCanonicalMap:
    """The canonical transformation attached to the problem's phase, built
    at the problem's own weight."""
    return canonical_from_phase(build_phase(problem))


def coherent_route_map(problem: ToeplitzProblem) -> LinearCanonicalMap:
    """Canonical transformation from the coherent-state phase
    (2/i)(f(x,z) - Psi(y,z)); equals the kernel-phase route."""
    f = bergman.bergman_exponent(problem)
    n = f.n
    h = problem.weight.h
    z = np.zeros((n, n), dtype=complex)
    hess = np.block([
        [-2j * f.fxx, z, -2j * f.fxz],
        [z, z, 2j * h.T],
        [-2j * f.fxz.T, 2j * h, -2j * f.fzz],
    ])
    return canonical_from_phase(QuadraticPhase(n, hess))


# ---------------------------------------------------------------------------
# seeded instance generators

def random_weight(rng, n: int, pluriharmonic: bool = False, levi_range=(0.3, 2.0)) -> Weight:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qmat, _ = np.linalg.qr(z)
    levi = rng.uniform(*levi_range, size=n)
    h = qmat @ np.diag(levi) @ qmat.conj().T
    p = np.zeros((n, n), dtype=complex)
    if pluriharmonic:
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = 0.2 * float(levi.min()) * (b + b.T) / 2.0
    return Weight(h, p)


def _random_symmetric(rng, n: int) -> np.ndarray:
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (b + b.T) / 2.0


def random_admissible_problem(
    rng, n: int, pluriharmonic: bool = False, min_margin: float = 0.1,
    damped: bool = False, levi_range=(0.3, 2.0),
) -> ToeplitzProblem:
    """A random (weight, q) pair with Re q < Phi_herm by a controlled margin.

    With ``damped`` the symbol exponent is dominated by a negative
    multiple of the Hermitian part, which biases the draw toward compact
    operators (raw draws are mostly unbounded).  The weight's Levi
    eigenvalues are drawn uniformly from ``levi_range``.
    """
    import scipy.linalg  # only here: importing verify leaves SciPy unloaded

    while True:
        w = random_weight(rng, n, pluriharmonic, levi_range)
        q = ComplexQuadraticForm(
            _random_symmetric(rng, n),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            _random_symmetric(rng, n),
        )
        herm_form = ComplexQuadraticForm(
            np.zeros((n, n)), w.h.copy(), np.zeros((n, n))
        )
        if damped:
            q = (-1.0) * herm_form + rng.uniform(0.1, 0.4) * q
        gen = scipy.linalg.eigh(
            real_part_matrix(q), real_part_matrix(herm_form), eigvals_only=True
        )
        lam_max = float(gen[-1])
        theta = rng.uniform(min_margin, 1.0 - min_margin)
        scale = theta / lam_max if lam_max > 0 else rng.uniform(0.5, 1.5)
        problem = ToeplitzProblem(w, scale * q)
        if problem.admissibility.ok and problem.admissibility.det_margin > 1e-6:
            return problem


def random_admissible_lambda(rng, re_range=(-3.0, 0.24), im_range=(-2.0, 2.0)) -> complex:
    """A random model parameter with Re lam < 1/4, kept away from the
    |1 - 2 lam| = 1 circle so sign checks are well posed."""
    while True:
        lam = complex(rng.uniform(*re_range), rng.uniform(*im_range))
        if abs(abs(1.0 - 2.0 * lam) - 1.0) > 1e-3:
            return lam


def factorization_residual(problem: ToeplitzProblem) -> float:
    """Relative distance of K = canonical_map(problem), the general
    construction, from T^{-1} K' T, K' the map of the normal-form phase and
    T = ``problem.normal_map()[0]``."""
    k_full = canonical_map(problem).k
    t, t_inv = problem.normal_map()
    recomposed = t_inv @ canonical_from_phase(normal_phase(problem.normal.q)).k @ t
    return float(np.max(np.abs(k_full - recomposed)) / max(1.0, np.max(np.abs(k_full))))


# ---------------------------------------------------------------------------
# suite plumbing

@dataclass
class Check:
    label: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.value <= self.bound


@dataclass
class SuiteResult:
    name: str
    checks: list = field(default_factory=list)

    def add(self, label: str, value: float, bound: float) -> None:
        self.checks.append(Check(label, float(value), float(bound)))

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def worst(self) -> Check | None:
        if not self.checks:
            return None
        return max(self.checks, key=lambda c: c.value / c.bound if c.bound > 0 else np.inf)


def _random_points(rng, n: int, count: int) -> np.ndarray:
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


# ---------------------------------------------------------------------------
# suites

def suite_involution(seed: int = 0, n: int = 1) -> SuiteResult:
    res = SuiteResult("involution")
    rng = np.random.default_rng(seed)
    for k in range(10):
        w = random_weight(rng, n, pluriharmonic=(k % 2 == 1))
        iota = involution_for_weight(w)
        res.add(f"iota^2 = id #{k}", iota.involution_residual(), 1e-12)
        worst_fix = 0.0
        for x in _random_points(rng, n, 100):
            pt = graph_point(w, x)
            img = iota.apply(pt)
            err = np.max(np.abs(img.vec - pt.vec)) / (1.0 + np.max(np.abs(pt.vec)))
            worst_fix = max(worst_fix, err)
        res.add(f"fixes graph #{k}", worst_fix, 1e-12)
        # T^{-1} iota_model conj(T), T the problem's map to its normal form
        t, t_inv = ToeplitzProblem(w, ComplexQuadraticForm.zero(n)).normal_map()
        other = t_inv @ normal_involution(n).m @ np.conj(t)
        res.add(f"normal form route agrees #{k}", float(np.max(np.abs(iota.m - other))), 1e-12)
        if w.is_hermitian:
            closed = _involution_closed_hermitian(w.h)
            res.add(f"closed form agrees #{k}", float(np.max(np.abs(iota.m - closed.m))), 1e-12)
        # antilinearity on sampled scalars
        rho = PhasePoint(*_random_points(rng, n, 2))
        c = complex(rng.standard_normal(), rng.standard_normal())
        lhs = iota.apply(PhasePoint.from_vec(c * rho.vec)).vec
        rhs = np.conj(c) * iota.apply(rho).vec
        res.add(f"antilinear #{k}", float(np.max(np.abs(lhs - rhs))), 1e-12)
    return res


def suite_symplectic(seed: int = 0, n: int = 1) -> SuiteResult:
    res = SuiteResult("symplectic")
    rng = np.random.default_rng(seed)
    for k in range(10):
        problem = random_admissible_problem(rng, n, pluriharmonic=(k % 3 == 0))
        kmap = canonical_map(problem)
        res.add(f"K^T J K = J #{k}", kmap.symplectic_residual(), 1e-12)
        iota = involution_for_weight(problem.weight)
        rho = PhasePoint(*_random_points(rng, n, 2))
        val = symplectic_product(rho, iota.apply(rho)) / 1j
        res.add(
            f"(1/i) sigma(rho, iota rho) real #{k}",
            abs(val.imag) / (1.0 + float(np.max(np.abs(rho.vec))) ** 2),
            1e-12,
        )
        rho2 = PhasePoint(*_random_points(rng, n, 2))
        anti = symplectic_product(rho, rho2) + symplectic_product(rho2, rho)
        res.add(f"antisymmetry #{k}", abs(anti), 1e-12)
    # exact base form on the radial weight: (1/i) sigma(rho, iota rho) = |y|^2/2 - 2|eta|^2
    wmodel = Weight.model(n)
    iota = involution_for_weight(wmodel)
    worst = 0.0
    for _ in range(50):
        rho = PhasePoint(*_random_points(rng, n, 2))
        val = symplectic_product(rho, iota.apply(rho)) / 1j
        expect = 0.5 * float(np.sum(np.abs(rho.x) ** 2)) - 2.0 * float(np.sum(np.abs(rho.xi) ** 2))
        worst = max(worst, abs(val - expect) / (1.0 + abs(expect)))
    res.add("radial base form", worst, 1e-14)
    return res


def suite_factorization(seed: int = 0, n: int = 1) -> SuiteResult:
    res = SuiteResult("factorization")
    rng = np.random.default_rng(seed)
    for k in range(50):
        problem = random_admissible_problem(rng, n, pluriharmonic=True)
        res.add(f"normal form factorization #{k}", factorization_residual(problem), 1e-12)
        if k < 10:
            cert_full = positivity_certificate(
                canonical_map(problem), involution_for_weight(problem.weight)
            )
            cert_normal = positivity_certificate(
                canonical_from_phase(normal_phase(problem.normal.q)), normal_involution(n)
            )
            agree = 0.0 if cert_full.classification == cert_normal.classification else 1.0
            res.add(f"normal form class agrees #{k}", agree, 0.5)
    return res


def suite_mehler(seed: int = 0, n: int = 1) -> SuiteResult:
    res = SuiteResult("mehler")
    rng = np.random.default_rng(seed)
    for k in range(20):
        lam = random_admissible_lambda(rng)
        inst = model.ModelInstance(1, lam, np.zeros((1, 1)))
        problem = model.model_problem(inst)
        symbol = weyl.weyl_symbol(problem)
        coeff = complex(symbol.g.qxbx[0, 0])
        expect = lam / (1.0 - lam)
        res.add(f"exponent coefficient #{k}", abs(coeff - expect), 1e-12)
        res.add(
            f"prefactor modulus #{k}",
            abs(symbol.prefactor_modulus - 1.0 / abs(1.0 - lam)),
            1e-10,
        )
        cls = weyl.classify_symbol(symbol)
        gabs = abs(inst.gamma)
        want = "vanishing_at_infinity" if gabs < 1.0 else "unbounded"
        res.add(f"sign matches |gamma| #{k}", 0.0 if cls.label == want else 1.0, 0.5)
    for k in range(3):
        lam = random_admissible_lambda(rng, re_range=(-1.0, 0.2), im_range=(-1.0, 1.0))
        problem = model.model_problem(model.ModelInstance(1, lam, np.zeros((1, 1))))
        symbol = weyl.weyl_symbol(problem)
        x = np.array([1.0 + 0.0j])
        num = oracle.numeric_weyl(problem, x)
        ref = symbol.evaluate(x)
        res.add(f"convolution agrees #{k}", abs(num - ref) / abs(ref), 1e-6)
    # general draws at the suite's dimension: the convolution in the file's
    # coordinates against the closed form taken back from the normal form
    for k in range(4):
        problem = random_admissible_problem(rng, n, pluriharmonic=k % 2 == 1)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = rng.uniform(0.5, 2.0) * u / np.linalg.norm(u)
        ref = weyl.weyl_symbol(problem).evaluate(x)
        try:
            rel = abs(oracle.numeric_weyl(problem, x) - ref) / abs(ref)
        except NumericalFailure:  # the rule's order is capped: a failed check
            rel = math.inf
        res.add(f"general convolution agrees #{k}", rel, 1e-6)
    return res


def suite_diagonal(seed: int = 0, n: int = 1) -> SuiteResult:
    res = SuiteResult("diagonal")
    size = 40
    for lam in (-0.5, 1j, 0.2):
        inst = model.ModelInstance(1, lam, np.zeros((1, 1)))
        problem = model.model_problem(inst)
        top = oracle.truncated_matrix(problem, size)
        eigs = np.linalg.eigvals(top.t)
        expect = inst.gamma ** (np.arange(1, size + 1))
        order_e = np.argsort(-np.abs(eigs))
        order_x = np.argsort(-np.abs(expect))
        rel = np.max(
            np.abs(eigs[order_e] - expect[order_x]) / np.abs(expect[order_x])
        )
        res.add(f"diagonal law lam={lam}", float(rel), 1e-10)
        double = oracle.truncated_matrix(problem, size, order=2 * top.spec.order)
        drift = np.max(np.abs(double.t - top.t)) / max(1.0, float(np.max(np.abs(top.t))))
        res.add(f"refinement stable lam={lam}", float(drift), 1e-8)
    inst = model.ModelInstance(1, -0.5, np.zeros((1, 1)))
    top = oracle.truncated_matrix(model.model_problem(inst), size)
    res.add("norm at lam=-1/2", abs(top.spectral_norm() - 0.5), 1e-9)
    return res


def suite_slopes(seed: int = 0, n: int = 1) -> SuiteResult:
    res = SuiteResult("slopes")
    radii = np.array([1.0, 2.0, 4.0])
    for lam in (-0.5, 0.2):
        inst = model.ModelInstance(1, lam, np.zeros((1, 1)))
        problem = model.model_problem(inst)
        logs = [
            np.log(oracle.numeric_coherent_norm(problem, np.array([r + 0.0j])))
            for r in radii
        ]
        slope = np.polyfit(radii ** 2, logs, 1)[0]
        expect = (abs(inst.gamma) ** 2 - 1.0) / 4.0
        res.add(f"log-norm slope lam={lam}", abs(slope - expect) / abs(expect), 1e-2)
        # growth exponent closed form: (|gamma|^2 - 1) |w|^2 / 2
        f = bergman.bergman_exponent(problem)
        w = np.array([2.0 + 0.0j])
        got = bergman.growth_exponent(f, problem.weight, w)
        res.add(
            f"growth exponent lam={lam}",
            abs(got - (abs(inst.gamma) ** 2 - 1.0) * 2.0),
            1e-12,
        )
    return res


SUITES = {
    "involution": suite_involution,
    "symplectic": suite_symplectic,
    "factorization": suite_factorization,
    "mehler": suite_mehler,
    "diagonal": suite_diagonal,
    "slopes": suite_slopes,
}


def run_suites(names=None, seed: int = 0, n: int = 1):
    """Run the named suites (all by default); returns a list of results."""
    if names is None:
        names = list(SUITES)
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    return [SUITES[s](seed=seed, n=n) for s in names]
