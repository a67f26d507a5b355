"""The normal-form kernels that classify runs, against the general-weight
constructions they specialize.

``classify_operator`` fills every matrix from the blocks of q' at H = I/4,
P = 0.  The references below are the general formulas at an arbitrary
weight: the Weyl resolvent with S the doubling of H^{-1}/4 and the Bergman
critical system solved against [[2H, 0], [0, 2H^T]], as in ``verify`` for
the phase and K.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bargtop.bergman import BergmanForm, critical_system, growth_subverdict
from bargtop.errors import DegeneratePhase, SingularSystem
from bargtop.forms import ComplexQuadraticForm, Weight
from bargtop.symplectic import (
    QuadraticPhase,
    _involution_closed_hermitian,
    canonical_from_phase,
    positivity_certificate,
)
from bargtop.toeplitz import DEFINITENESS_VERDICT, ToeplitzProblem, classify_operator
from bargtop.verify import canonical_map, random_admissible_problem
from bargtop.weyl import WeylSymbol, symbol_subverdict


def general_weyl_symbol(problem):
    n, q = problem.n, problem.q
    qmat = np.block([[q.qxx, q.qxbx.T], [q.qxbx, q.qxbxb]])
    c = np.linalg.inv(problem.weight.h) / 4.0
    smat = np.block([[np.zeros((n, n)), c], [c.T, np.zeros((n, n))]])
    resolvent = np.eye(2 * n) - smat @ qmat
    g2 = qmat @ np.linalg.inv(resolvent)
    g2 = (g2 + g2.T) / 2.0
    sign, logabs = np.linalg.slogdet(resolvent)
    return WeylSymbol(-0.5 * (logabs + 1j * np.angle(sign)),
                      ComplexQuadraticForm(g2[:n, :n], g2[n:, :n], g2[n:, n:]))


def general_bergman_exponent(problem):
    cs = critical_system(problem)
    n, h = problem.n, cs.h
    z = np.zeros((n, n))
    sol = np.linalg.solve(cs.amat, np.block([[2.0 * h, z], [z, 2.0 * h.T]]))
    fxx, fzz = h.T @ sol[n:, :n], h @ sol[:n, n:]
    return BergmanForm((fxx + fxx.T) / 2.0, h.T @ sol[n:, n:], (fzz + fzz.T) / 2.0)


def reference_witnesses(problem):
    """The certificate, Weyl and Bergman sub-verdicts of the normal form,
    from the general-weight constructions."""
    normal, tol = problem.normal, problem.tol
    cert = positivity_certificate(canonical_map(normal),
                                  _involution_closed_hermitian(normal.weight.h), tol)
    return {
        "certificate": (DEFINITENESS_VERDICT[cert.classification], cert.margin, cert.scale),
        "weyl": symbol_subverdict(general_weyl_symbol(normal), tol),
        "bergman": growth_subverdict(general_bergman_exponent(normal), normal.weight, tol),
    }


def close(got, want, scale):
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-12 * scale


class TestAgainstGeneralWeight:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), damped=st.booleans())
    def test_kernels_match_general_construction(self, seed, n, damped):
        # a non-unit Levi form with a pluriharmonic part, so the kernels run
        # on a normal form that differs from the problem as given
        problem = random_admissible_problem(np.random.default_rng(seed), n,
                                            pluriharmonic=True, damped=damped)
        v = classify_operator(problem)
        ref = reference_witnesses(problem)
        ref_cert = ref["certificate"]
        assert v.verdict is ref_cert[0]
        assert v.boundary is not (abs(ref_cert[1]) > 1e-8 * max(ref_cert[2], 1.0))
        for name, want in ref.items():
            got = v.witnesses[name]
            want = want if isinstance(want, tuple) else (want.verdict, want.margin, want.scale)
            assert got.verdict is want[0], name
            assert close(got.margin, want[1], want[2]), name
            assert close(got.scale, want[2], want[2]), name

        k = canonical_map(problem).k
        assert close(v.kappa.k, k, np.max(np.abs(k)))
        ws = general_weyl_symbol(problem)
        blocks = (ws.g.qxx, ws.g.qxbx, ws.g.qxbxb)
        scale = max(np.max(np.abs(b)) for b in blocks)
        for got, want in zip((v.symbol.g.qxx, v.symbol.g.qxbx, v.symbol.g.qxbxb), blocks):
            assert close(got, want, scale)
        assert abs(v.symbol.log_c.real - ws.log_c.real) <= 1e-12 * max(1.0, abs(ws.log_c.real))
        # the report's coherent exponent is that of the weight's Hermitian part
        herm = ToeplitzProblem(Weight(problem.weight.h, np.zeros((n, n))), problem.q)
        f = general_bergman_exponent(herm)
        blocks = (f.fxx, f.fxz, f.fzz)
        scale = max(np.max(np.abs(b)) for b in blocks)
        for got, want in zip((v.bergman_form.fxx, v.bergman_form.fxz, v.bergman_form.fzz),
                             blocks):
            assert close(got, want, scale)


class TestNoBlockAssembly:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_construction_and_classify_call_no_np_block(self, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("np.block called on the classify path")

        problem_args = random_admissible_problem(np.random.default_rng(n), n, pluriharmonic=True)
        monkeypatch.setattr(np, "block", refuse)
        problem = ToeplitzProblem(problem_args.weight, problem_args.q)
        v = classify_operator(problem)
        assert v.kappa is not None and v.symbol is not None and v.bergman_form is not None


class TestZeroScaleMessages:
    # a matrix whose largest singular value is 0 is singular with margin 0;
    # the message must say so without a 0/0 (a RuntimeWarning is an error here)
    @pytest.mark.parametrize("build, error, text", [
        (lambda: canonical_from_phase(QuadraticPhase(1, np.zeros((3, 3)))), DegeneratePhase,
         "sigma_min/sigma_max = 0.000e+00"),
        (lambda: canonical_from_phase(QuadraticPhase(2, np.zeros((6, 6)))), DegeneratePhase,
         "sigma_min/sigma_max = 0.000e+00"),
        (lambda: BergmanForm(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))),
         SingularSystem, "margin 0.000e+00"),
        (lambda: BergmanForm(np.eye(2), np.zeros((2, 2)), np.eye(2)), SingularSystem,
         "margin 0.000e+00"),
    ], ids=["phase-n1", "phase-n2", "bergman-n1", "bergman-n2"])
    def test_zero_matrix_reports_zero_margin(self, build, error, text):
        with pytest.raises(error, match=text.replace("(", r"\(").replace("+", r"\+")):
            build()
