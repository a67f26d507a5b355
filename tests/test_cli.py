import concurrent.futures.process
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

import bargtop.cli as cli
from bargtop import io, model, oracle, verify
from bargtop.cli import main
from bargtop.errors import NumericalFailure, ProblemFileError
from bargtop.io import load_problem
from bargtop.toeplitz import VerdictClass, classify_operator


DATA = Path(__file__).parent / "data"


def run_capped(*argv, cwd=None):
    """``bargtop argv`` in a child that caps its own address space at 1 GiB
    before it imports bargtop, so that a regression fails the test instead
    of exhausting the machine's memory."""
    pytest.importorskip("resource")
    child = (
        "import resource, runpy, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "sys.argv[0] = 'bargtop'\n"
        "runpy.run_module('bargtop', run_name='__main__')\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", child, *argv],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=60)


#: an n = 2 Levi form of 1e-200 I that classify, trend and coherent accept
TINY_LEVI_N2 = (
    "n: 2\nphi0:\n  hermitian: [[[1.0e-200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0e-200, 0.0]]]\n"
    "q:\n  xbarx: [[[-1.0e-200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-2.0e-200, 0.0]]]\n"
)


def write_model_file(path, lam, a=0.0, extra=""):
    text = f"""n: 1
phi0:
  hermitian: [[[0.25, 0.0]]]
q:
  xbarx: [[[{lam.real}, {lam.imag}]]]
  xbarxbar: [[[{2 * a}, 0.0]]]
{extra}"""
    path.write_text(text)
    return str(path)


class TestProblemFiles:
    def test_loads_model_problem(self, tmp_path):
        problem = load_problem(write_model_file(tmp_path / "p.yaml", complex(-0.5)))
        assert problem.n == 1
        assert problem.weight.h[0, 0] == 0.25
        assert problem.q.qxbx[0, 0] == -0.5

    def test_defaults_are_zero(self, tmp_path):
        path = tmp_path / "p.yaml"
        path.write_text("n: 2\nphi0:\n  hermitian: [[[0.5,0],[0,0]],[[0,0],[0.5,0]]]\n")
        problem = load_problem(str(path))
        assert np.all(problem.q.qxx == 0)
        assert np.all(problem.weight.p == 0)

    def test_error_names_the_field(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("n: 1\nphi0:\n  hermitian: [[[0.25, 0.0]]]\nq:\n  xbarx: [[0.5]]\n")
        with pytest.raises(ProblemFileError, match=r"q\.xbarx"):
            load_problem(str(path))

    def test_string_complex_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text('n: 1\nphi0:\n  hermitian: [[["0.25", 0.0]]]\n')
        with pytest.raises(ProblemFileError, match=r"phi0\.hermitian"):
            load_problem(str(path))

    @pytest.mark.parametrize("text", ["-5e-1", "1.0e300"])
    def test_yaml_string_number_explained(self, tmp_path, capsys, text):
        # YAML 1.1 reads these as strings; the message says so and how to fix it
        path = tmp_path / "bad.yaml"
        path.write_text(f"n: 1\nphi0:\n  hermitian: [[[0.25, 0.0]]]\nq:\n  xbarx: [[[{text}, 0.0]]]\n")
        with pytest.raises(ProblemFileError, match=r"q\.xbarx\[0\]\[0\]: '.*' is read as a string"):
            load_problem(str(path))
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'.' in the mantissa" in err

    def test_missing_n(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("phi0:\n  hermitian: [[[0.25, 0.0]]]\n")
        with pytest.raises(ProblemFileError, match="n:"):
            load_problem(str(path))

    def test_boolean_n_rejected(self, tmp_path, capsys):
        # YAML reads `true` as a bool, which Python counts as the int 1
        path = tmp_path / "bad.yaml"
        path.write_text("n: true\nphi0:\n  hermitian: [[[0.25, 0.0]]]\n")
        with pytest.raises(ProblemFileError, match="n:"):
            load_problem(str(path))
        assert main(["classify", str(path)]) == 2

    def test_not_utf8_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"n: 1\nphi0: \xff\n")
        with pytest.raises(ProblemFileError, match="not valid YAML"):
            load_problem(str(path))
        assert main(["classify", str(path)]) == 2

    @pytest.mark.parametrize("entry", ["[[[.nan, 0.0]]]", "[[[0.1, .inf]]]"])
    def test_non_finite_entry_rejected(self, tmp_path, capsys, entry):
        path = tmp_path / "bad.yaml"
        path.write_text(f"n: 1\nphi0:\n  hermitian: [[[0.25, 0.0]]]\nq:\n  xbarx: {entry}\n")
        with pytest.raises(ProblemFileError, match="non-finite"):
            load_problem(str(path))
        assert main(["classify", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_c_and_python_loaders_agree(self, tmp_path, monkeypatch):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("this PyYAML build has no libyaml")
        path = write_model_file(
            tmp_path / "p.yaml", complex(-0.3, 0.1), a=0.02,
            extra="tolerances:\n  classification: 1.0e-7\n",
        )
        # a canonical file: make both loaders read it
        monkeypatch.setattr(io, "_read_canonical", lambda text: None)
        loaded = []
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            monkeypatch.setattr(io, "_YAML_LOADER", loader)
            loaded.append(load_problem(path))
        c, py = loaded
        for block in ("h", "p"):
            assert np.array_equal(getattr(c.weight, block), getattr(py.weight, block))
        for block in ("qxx", "qxbx", "qxbxb"):
            assert np.array_equal(getattr(c.q, block), getattr(py.q, block))
        assert c.tol == py.tol == 1e-7


class TestTolerances:
    # lam = 0, ||A|| = 0.24: Phi_herm - Re q has eigenvalues 0.01 and 0.49,
    # an admissibility margin of 0.02 relative to its scale
    def test_file_tolerance_governs_admissibility(self, tmp_path, capsys):
        path = write_model_file(tmp_path / "p.yaml", complex(0.0), a=0.24)
        assert main(["classify", path]) == 0
        capsys.readouterr()
        path = write_model_file(tmp_path / "q.yaml", complex(0.0), a=0.24,
                                extra="tolerances:\n  classification: 0.05\n")
        assert main(["classify", path]) == 2
        assert "nonnegative direction" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        "tolerances: 5\n",
        "tolerances: [1.0e-9]\n",
        "tolerances:\n  classification: -1.0\n",
        "tolerances:\n  classification: .nan\n",
        "tolerances:\n  classification: .inf\n",
        "tolerances:\n  classification: abc\n",
        "tolerances:\n  classification: true\n",
    ])
    def test_bad_file_tolerance_exits_two(self, tmp_path, capsys, extra):
        path = write_model_file(tmp_path / "p.yaml", complex(-0.5), extra=extra)
        with pytest.raises(ProblemFileError, match="tolerances"):
            load_problem(path)
        assert main(["classify", path]) == 2
        assert "tolerances" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-1", "inf", "nan", ""])
    def test_bad_env_tolerance_exits_two(self, tmp_path, capsys, monkeypatch, value):
        path = write_model_file(tmp_path / "p.yaml", complex(-0.5))
        monkeypatch.setenv("TOEPLITZ_TOL", value)
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert "TOEPLITZ_TOL" in err and err.count("\n") == 1


class TestClassifyCommand:
    def test_compact_model_exits_zero(self, tmp_path, capsys):
        path = write_model_file(tmp_path / "p.yaml", complex(-0.5))
        assert main(["classify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "compact"
        assert set(report["margins"]) == {"certificate", "weyl", "bergman", "model"}
        assert report["kappa"] == [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]

    def test_inadmissible_exits_two(self, tmp_path, capsys):
        path = write_model_file(tmp_path / "p.yaml", complex(0.3))
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert "nonnegative direction" in err

    def test_trivial_symbol_is_boundary(self, tmp_path, capsys):
        path = tmp_path / "p.yaml"
        path.write_text("n: 1\nphi0:\n  hermitian: [[[0.25, 0.0]]]\n")
        assert main(["classify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "bounded_not_compact"
        assert report["boundary"] is True

    def test_report_round_trips(self, tmp_path, capsys):
        path = write_model_file(tmp_path / "p.yaml", complex(-0.4, 0.2), a=0.03)
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report
        # complex entries are [re, im] pairs
        entry = report["weyl_exponent"]["xbarx"][0][0]
        assert isinstance(entry, list) and len(entry) == 2

    def test_report_deterministic_modulo_timing(self, tmp_path, capsys):
        path = write_model_file(tmp_path / "p.yaml", complex(-0.3, 0.4), a=0.02)
        assert main(["classify", path]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["classify", path]) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("timing_seconds")
        second.pop("timing_seconds")
        assert first == second

    def test_each_quantity_built_once(self, tmp_path, capsys, monkeypatch):
        import bargtop.bergman as bergman
        import bargtop.toeplitz as toeplitz
        import bargtop.weyl as weyl

        calls = {}

        def count(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        from bargtop import verify

        for module, name in ((toeplitz, "check_admissible"), (toeplitz, "canonical_from_phase"),
                             (toeplitz, "normal_phase"),
                             (weyl, "normal_symbol"), (bergman, "normal_exponent"),
                             (weyl, "weyl_symbol"), (bergman, "critical_system"),
                             (bergman, "bergman_exponent")):
            count(module, name)
        path = write_model_file(tmp_path / "p.yaml", complex(-0.3, 0.1), a=0.02)
        assert main(["classify", path]) == 0
        # one kernel per quantity, on the normal form; the report reuses them,
        # and the general-weight constructions are not called
        assert calls == {"check_admissible": 1, "canonical_from_phase": 1, "normal_phase": 1,
                         "normal_symbol": 1, "normal_exponent": 1}
        report = json.loads(capsys.readouterr().out)
        assert np.array_equal(np.array(report["kappa"]).view(complex)[..., 0],
                              verify.canonical_map(load_problem(path)).k)

    def test_disagreement_exits_three(self, tmp_path, capsys, monkeypatch):
        import bargtop.cli as cli
        from bargtop.errors import DisagreementError

        def boom(problem, tol=None):
            raise DisagreementError("forced conflict")

        monkeypatch.setattr(cli, "classify_operator", boom)
        path = write_model_file(tmp_path / "p.yaml", complex(-0.5))
        assert main(["classify", path]) == 3
        assert "forced conflict" in capsys.readouterr().err

    @pytest.mark.parametrize("phi0,q,verdict", [
        ("hermitian: [[[1.0e-30, 0.0]]]", "", "bounded_not_compact"),
        ("hermitian: [[[1.0e+300, 0.0]]]", "q:\n  xbarx: [[[-1.0e+300, 0.0]]]\n", "compact"),
    ])
    def test_levi_form_far_from_unit_scale_classifies(self, tmp_path, capsys, phi0, q, verdict):
        # the normal form is |x|^2/4 with q' = 0 and q' = -|x|^2/4
        path = tmp_path / "p.yaml"
        path.write_text(f"n: 1\nphi0:\n  {phi0}\n{q}")
        assert main(["classify", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["verdict"] == verdict

    def test_normal_form_overflow_exits_three(self, tmp_path, capsys):
        # q' = q / (4 * 1e-300) is not a finite number
        path = tmp_path / "p.yaml"
        path.write_text("n: 1\nphi0:\n  hermitian: [[[1.0e-300, 0.0]]]\n"
                        "q:\n  xbarx: [[[0.0, 1.0e+10]]]\n")
        assert main(["classify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    @pytest.mark.parametrize("a", [0.0, 0.05])
    @pytest.mark.parametrize("k", range(-8, 9))
    def test_dilated_compact_problem(self, tmp_path, capsys, k, a):
        # H = s/4, q = s(-|x|^2/2 + a xbar^2) is the dilation of a compact model
        s = 10.0 ** k
        path = tmp_path / "p.yaml"
        path.write_text(f"n: 1\nphi0:\n  hermitian: [[[{s / 4:.17e}, 0.0]]]\n"
                        f"q:\n  xbarx: [[[{-s / 2:.17e}, 0.0]]]\n"
                        f"  xbarxbar: [[[{2 * a * s:.17e}, 0.0]]]\n")
        assert main(["classify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "compact" and report["boundary"] is False
        assert set(report["margins"]) == {"certificate", "weyl", "bergman", "model"}
        for entry in report["margins"].values():
            assert entry["verdict"] == "compact"
            assert abs(entry["margin"]) > 1e-8 * max(entry["scale"], 1.0)

    def test_tolerance_override_via_env(self, tmp_path, capsys, monkeypatch):
        # a wide band turns a mildly definite certificate into a boundary call:
        # lam = -0.05 has margin/scale ~ 0.3 on the certificate eigenvalues
        path = write_model_file(tmp_path / "p.yaml", complex(-0.05))
        monkeypatch.setenv("TOEPLITZ_TOL", "0.5")
        assert main(["classify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "bounded_not_compact"
        monkeypatch.delenv("TOEPLITZ_TOL")
        assert main(["classify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "compact"

    def test_reader_that_closes_early_gets_no_traceback(self, tmp_path, capsys):
        # an n = 12 report is larger than a 64 KiB pipe buffer, so the
        # write still runs when the reader closes its end after 20 bytes
        path = tmp_path / "n12.yaml"
        path.write_text(problem_text(verify.random_admissible_problem(np.random.default_rng(0), 12)))
        assert main(["classify", str(path)]) == 0
        assert len(capsys.readouterr().out) > 1 << 16
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")]))
        child = subprocess.Popen([sys.executable, "-m", "bargtop", "classify", str(path)],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert child.stdout.read(20).startswith(b"{")
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""  # no traceback, nor any other line


def number_text(x):
    # repr, with the '.' YAML 1.1 needs before an exponent
    text = repr(float(x))
    return text.replace("e", ".0e") if "e" in text and "." not in text else text


def flow_matrix(m):
    return "[" + ", ".join(
        "[" + ", ".join(f"[{number_text(z.real)}, {number_text(z.imag)}]" for z in row) + "]"
        for row in m) + "]"


def problem_text(problem):
    """``problem`` as a canonical flow-style file, every entry by its repr."""
    w, q = problem.weight, problem.q
    return (f"n: {problem.n}\nphi0:\n  hermitian: {flow_matrix(w.h)}\n"
            f"  pluriharmonic: {flow_matrix(w.p)}\n"
            f"q:\n  xx: {flow_matrix(q.qxx)}\n  xbarx: {flow_matrix(q.qxbx)}\n"
            f"  xbarxbar: {flow_matrix(q.qxbxb)}\n")


@st.composite
def model_instances(draw):
    """Admissible (lam, A) of the radial family at n = 1..3, A complex symmetric."""
    n = draw(st.integers(1, 3))
    lam = complex(draw(st.floats(-2.0, 0.2)), draw(st.floats(-1.0, 1.0)))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n * n, max_size=2 * n * n))
    b = np.array(parts).view(complex).reshape(n, n)
    a = b + b.T
    norm = np.linalg.norm(a, 2)
    if norm > 0:
        scale = draw(st.floats(0.0, 0.95)) * (0.25 - lam.real)
        # each real part divided by the norm: 1 / norm, which a complex
        # division takes, overflows for a subnormal norm
        a = (a.view(float) / norm).view(complex) * scale
    return model.ModelInstance(n, lam, a)


class TestClosedFormThroughFiles:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(inst=model_instances())
    def test_file_verdict_matches_closed_form(self, tmp_path, capsys, inst):
        problem = model.model_problem(inst)
        blocks = {"hermitian": problem.weight.h, "xbarx": problem.q.qxbx,
                  "xbarxbar": problem.q.qxbxb}
        flow = tmp_path / "flow.yaml"
        flow.write_text(f"n: {inst.n}\nphi0:\n  hermitian: {flow_matrix(blocks['hermitian'])}\n"
                        f"q:\n  xbarx: {flow_matrix(blocks['xbarx'])}\n"
                        f"  xbarxbar: {flow_matrix(blocks['xbarxbar'])}\n")
        block = tmp_path / "block.yaml"
        pairs = {k: [[[z.real, z.imag] for z in row] for row in m.tolist()] for k, m in blocks.items()}
        block.write_text(yaml.safe_dump(
            {"n": inst.n, "phi0": {"hermitian": pairs["hermitian"]},
             "q": {"xbarx": pairs["xbarx"], "xbarxbar": pairs["xbarxbar"]}},
            default_flow_style=False))
        assert io._read_canonical(flow.read_text()) is not None
        assert io._read_canonical(block.read_text()) is None
        outputs = []
        for path in (flow, block):
            assert main(["classify", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        timing = re.compile(r'"timing_seconds": [^,\n]+')
        assert timing.sub("T", outputs[0]) == timing.sub("T", outputs[1])
        report = json.loads(outputs[0])
        closed = model.classify_model(inst)
        event(f"{report['verdict']}, boundary {report['boundary']}")
        if not report["boundary"] and closed.witnesses["model"].confident:
            assert report["verdict"] == closed.verdict.value


PARENT_PID = os.getpid()
SCAN_POINT = cli._scan_point


def exit_on_last_row(point):
    """``cli._scan_point`` in a worker that dies on the point (0, 0, 0.1)."""
    if point == (0.0, 0.0, 0.1):
        assert os.getpid() != PARENT_PID, "the grid ran in the test process"
        os._exit(1)
    return SCAN_POINT(point)


class PoolSpy(list):
    """The process pools a scan starts, once ``on()`` lets a grid of a few
    rows take a 2-worker pool."""

    def __init__(self, monkeypatch):
        super().__init__()
        self.monkeypatch = monkeypatch
        executor, pools = concurrent.futures.process.ProcessPoolExecutor, self

        class Counted(executor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Counted)

    def on(self):
        self.monkeypatch.setattr(cli, "_ROWS_PER_WORKER", 2)
        self.monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


@pytest.fixture
def pooled(monkeypatch):
    if multiprocessing.get_all_start_methods()[0] != "fork":
        pytest.skip("the scan pools only where fork is the default start method")
    return PoolSpy(monkeypatch)


class TestScanCommand:
    def test_single_boundary_point(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--lambda-re", "0:0:1", "--lambda-im", "0",
                   "--norm-a", "0:0:1", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re_lambda,im_lambda,normA,verdict,margin"
        assert lines[1] == "0.0,0.0,0.0,bounded_not_compact,0.0"

    def test_deterministic_and_parallel_identical(self, tmp_path, capsys, pooled):
        args = ["--lambda-re", "-1:0.2:7", "--lambda-im", "0,0.5",
                "--norm-a", "0:0.2:3"]
        out1, out2, out3 = (tmp_path / f"s{i}.csv" for i in range(3))
        assert main(["scan", *args, "-o", str(out1)]) == 0
        assert main(["scan", *args, "-o", str(out2)]) == 0
        assert not pooled
        pooled.on()
        assert main(["scan", *args, "-o", str(out3)]) == 0
        assert len(pooled) == 1 and not multiprocessing.active_children()
        assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()

    def test_reference_grid_matches_golden_csv(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--lambda-re=-2:0.24:101", "--lambda-im", "0,0.5",
                     "--norm-a", "0:0.2:5", "-o", str(out)]) == 0
        golden = os.path.join(os.path.dirname(__file__), "data", "scan_reference.csv")
        with open(golden, "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_closed_form_is_the_model_witness(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the closed form was classified again")

        monkeypatch.setattr(model, "classify_model", never)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--lambda-re=-1:0.3:4", "--lambda-im", "0,0.5",
                     "--norm-a", "0:0.2:3", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 4 * 2 * 3

    def test_admissible_row_takes_one_svd_of_a(self, monkeypatch):
        # the model witness's: the row builds q' at the normal form with no
        # ModelInstance of its own
        from bargtop import _lapack

        svd, args, instances = _lapack.svdvals, [], []
        post_init = model.ModelInstance.__post_init__

        def counting(m):
            args.append(m)
            return svd(m)

        def tracking(self):
            post_init(self)
            instances.append(self)

        monkeypatch.setattr(_lapack, "svdvals", counting)
        monkeypatch.setattr(model.ModelInstance, "__post_init__", tracking)
        row = cli._scan_point((-0.5, 0.5, 0.1))
        assert row[3] == "compact" and len(instances) == 1
        assert sum(any(m is inst.a for inst in instances) for m in args) == 1

    @staticmethod
    def model_problem_row(point):
        """The row built through ModelInstance and model_problem, as the
        scan once did, or the failure it raised."""
        re_lam, im_lam, norm_a = point
        inst = model.ModelInstance(1, complex(re_lam, im_lam), np.array([[norm_a]]))
        try:
            verdict = classify_operator(model.model_problem(inst))
        except NumericalFailure as exc:
            return type(exc), str(exc)
        if verdict.verdict is VerdictClass.INADMISSIBLE:
            return (re_lam, im_lam, norm_a, "inadmissible", math.nan)
        closed = verdict.witnesses["model"]
        if (verdict.verdict is not closed.verdict and verdict.witnesses["certificate"].confident
                and closed.confident):
            return NumericalFailure, "mismatch"
        return (re_lam, im_lam, norm_a, verdict.verdict.value, verdict.margin)

    @settings(max_examples=150, deadline=None)
    @given(re_lam=st.one_of(st.floats(-3.0, 1.0), st.floats(allow_nan=False, allow_infinity=False)),
           im_lam=st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False)),
           norm_a=st.one_of(st.floats(-1.0, 1.0), st.floats(-8.9e307, 8.9e307)))
    @example(re_lam=-0.0, im_lam=-0.0, norm_a=-0.0)
    @example(re_lam=0.0, im_lam=0.0, norm_a=0.0)
    @example(re_lam=-0.001, im_lam=0.0, norm_a=0.001)
    def test_row_is_the_model_problem_row(self, re_lam, im_lam, norm_a):
        # q' built at the normal form is model_problem's q, so the row is the
        # same, bit for bit, as is a failure
        point = (re_lam, im_lam, norm_a)
        want = self.model_problem_row(point)
        try:
            got = cli._scan_point(point)
        except NumericalFailure as exc:
            got = type(exc), "mismatch" if str(exc).startswith("pipeline=") else str(exc)
        assert repr(got) == repr(want)

    def test_confident_certificate_model_conflict_fails(self, tmp_path, capsys, monkeypatch):
        # above a tolerance of 1e-8 the certificate can call lam = -0.001,
        # ||A|| = 0.001 bounded_not_compact with a confident margin while the
        # closed form says compact; classify_operator raises no
        # DisagreementError there, the scan's own rule does
        monkeypatch.setenv("TOEPLITZ_TOL", "1e-3")
        out = tmp_path / "scan.csv"
        assert main(["scan", "--lambda-re=-1:-0.001:2", "--lambda-im", "0",
                     "--norm-a", "0:0.001:2", "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: pipeline=bounded_not_compact but "
                              "closed form=compact") and err.count("\n") == 1
        assert not out.exists()

    def test_rows_cover_grid_in_order(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--lambda-re", "-1:0:3", "--lambda-im", "0",
                     "--norm-a", "0:0.1:2", "-o", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 6
        res = [float(r.split(",")[0]) for r in rows]
        assert res == [-1.0, -1.0, -0.5, -0.5, 0.0, 0.0]

    def test_inadmissible_rows_marked(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--lambda-re", "0.2:0.2:1", "--lambda-im", "0",
                     "--norm-a", "0.2:0.2:1", "-o", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1]
        assert "inadmissible" in row and "nan" in row

    def test_admissibility_edge(self, tmp_path, capsys):
        # at Re lam + ||A|| = 1/4 the closed-form condition and the
        # pipeline's check meet; the pipeline decides
        out = tmp_path / "scan.csv"
        assert main(["scan", "--lambda-re=0.2:0.24:3", "--norm-a", "0:0.01:3",
                     "-o", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 9
        assert rows[-1] == "0.24,0.0,0.01,inadmissible,nan"

    def test_invalid_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--lambda-re", "1:0:5", "--lambda-im", "0",
                   "--norm-a", "0:0.1:2", "-o", str(out)])
        assert rc == 2
        rc = main(["scan", "--lambda-re", "0:1:3", "--lambda-im", "0,0",
                   "--norm-a", "0:0.1:2", "-o", str(out)])
        assert rc == 2

    @pytest.mark.parametrize("grid", [
        ["--lambda-re=-1:0:3", "--lambda-im", "nan", "--norm-a", "0:0.1:2"],
        ["--lambda-re=-1:inf:3", "--norm-a", "0:0.1:2"],
        ["--lambda-re=-1:0:3", "--norm-a", "-inf:0.1:2"],
        # the model's symbol carries 2 ||A||, which must be finite too
        ["--lambda-re=-1:0:2", "--lambda-im", "0", "--norm-a", "1e308:1e308:1"],
        # np.linspace steps by b - a
        ["--lambda-re=-1.7e308:1e308:2", "--norm-a", "0:0.1:2"],
    ])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, grid):
        out = tmp_path / "scan.csv"
        assert main(["scan", *grid, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and err.count("\n") == 1
        assert not out.exists()

    def test_lambda_near_float_max_fails_in_one_line(self, tmp_path, capsys):
        # the form matrix halves its entries before it adds them: no overflow
        # warning precedes the failure
        out = tmp_path / "scan.csv"
        assert main(["scan", "--lambda-re=-1e308:-1e308:1", "--lambda-im", "0",
                     "--norm-a", "0:0:1", "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("grid", [
        ["--lambda-re=1e308:1e308:1", "--lambda-im", "0", "--norm-a", "8.9e307:8.9e307:1"],
        ["--lambda-re=-1e308:-1e308:1", "--lambda-im", "1e308", "--norm-a", "0:0:1"],
    ], ids=["realified-gap", "determinant"])
    def test_admissibility_overflow_fails_in_one_line(self, tmp_path, capsys, grid):
        # the admissibility check's realified gap, or its determinant, meets
        # the float maximum; no warning precedes the failure
        out = tmp_path / "scan.csv"
        assert main(["scan", *grid, "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_output_fails_before_the_grid(self, tmp_path, capsys, monkeypatch):
        def never(point):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "_scan_point", never)
        out = tmp_path / "missing" / "scan.csv"
        assert main(["scan", "--lambda-re=-1:0:3", "--norm-a", "0:0.1:2", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}:") and err.count("\n") == 1

    SIX_ROWS = ["--lambda-re=-1:0:3", "--norm-a", "0:0.1:2"]

    @pytest.mark.parametrize("failure", [OSError, NotImplementedError, ImportError])
    def test_pool_that_cannot_start_runs_the_grid_here(self, tmp_path, capsys, monkeypatch,
                                                        pooled, failure):
        # no semaphores (NotImplementedError, ImportError) or no processes (OSError)
        def no_pool(*args, **kwargs):
            tried.append(args)
            raise failure("no pool here")

        tried = []
        serial, out = tmp_path / "serial.csv", tmp_path / "scan.csv"
        assert main(["scan", *self.SIX_ROWS, "-o", str(serial)]) == 0
        pooled.on()
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
        assert main(["scan", *self.SIX_ROWS, "-o", str(out)]) == 0
        assert len(tried) == 1 and out.read_bytes() == serial.read_bytes()
        assert not multiprocessing.active_children()

    def test_fork_that_fails_on_the_second_worker_runs_the_grid_here(
            self, tmp_path, capsys, monkeypatch, pooled):
        # the first worker has forked and waits for work that never comes
        fork, forks = os.fork, []

        def fork_once():
            forks.append(1)
            if len(forks) > 1:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        serial, out = tmp_path / "serial.csv", tmp_path / "scan.csv"
        assert main(["scan", *self.SIX_ROWS, "-o", str(serial)]) == 0
        pooled.on()
        monkeypatch.setattr(os, "fork", fork_once)
        assert main(["scan", *self.SIX_ROWS, "-o", str(out)]) == 0
        assert len(forks) == 2 and out.read_bytes() == serial.read_bytes()
        assert not multiprocessing.active_children()

    def test_dead_worker_exits_three_in_one_line(self, tmp_path, capsys, monkeypatch, pooled):
        pooled.on()
        monkeypatch.setattr(cli, "_scan_point", exit_on_last_row)
        out = tmp_path / "scan.csv"
        assert main(["scan", *self.SIX_ROWS, "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: a scan worker process died")
        assert err.count("\n") == 1
        assert len(pooled) == 1 and not out.exists()
        assert not multiprocessing.active_children()

    def test_confident_conflict_on_the_pool_fails_as_serially(self, tmp_path, capsys,
                                                               monkeypatch, pooled):
        # the worker's NumericalFailure reaches main as the serial scan's does
        monkeypatch.setenv("TOEPLITZ_TOL", "1e-3")
        grid = ["--lambda-re=-1:-0.001:2", "--lambda-im", "0", "--norm-a", "0:0.001:2"]
        out = tmp_path / "scan.csv"
        errs = []
        for _ in range(2):
            assert main(["scan", *grid, "-o", str(out)]) == 3
            errs.append(capsys.readouterr().err)
            assert not out.exists()
            pooled.on()
        assert errs[0] == errs[1] and errs[0].count("\n") == 1
        assert errs[0].startswith("numerical failure: pipeline=bounded_not_compact")
        assert len(pooled) == 1 and not multiprocessing.active_children()

    def test_grid_above_row_limit_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(cli.np, "linspace", never)
        out = tmp_path / "scan.csv"
        steps = cli._SCAN_MAX_ROWS // 2 + 1
        assert main(["scan", f"--lambda-re=0:0.2:{steps}", "--lambda-im", "0,0.5",
                     "--norm-a", "0:0:1", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the grid has") and err.count("\n") == 1
        assert not out.exists()

    def test_huge_grid_refused_under_address_space_limit(self, tmp_path):
        # 5e11 rows: the old scan ended in a 745 GiB allocation traceback
        proc = run_capped("scan", "--lambda-re=-2:0.24:100000000000", "--lambda-im", "0",
                          "--norm-a", "0:0.2:5", "-o", "x.csv", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("via_link", [False, True])
    def test_failed_grid_leaves_no_csv(self, tmp_path, capsys, monkeypatch, via_link):
        from bargtop.errors import NumericalFailure

        scan_point, calls = cli._scan_point, []

        def fail_third(point):
            calls.append(point)
            if len(calls) == 3:
                raise NumericalFailure("forced failure")
            return scan_point(point)

        monkeypatch.setattr(cli, "_scan_point", fail_third)
        out = tmp_path / "scan.csv"
        target = out
        if via_link:
            # like -o /dev/stdout: the link stays, only its target was truncated
            target = tmp_path / "link.csv"
            target.symlink_to(out)
        assert main(["scan", "--lambda-re=-1:0:3", "--norm-a", "0:0.1:2", "-o", str(target)]) == 3
        assert "forced failure" in capsys.readouterr().err
        if via_link:
            assert target.is_symlink() and out.read_text() == ""
        else:
            assert not out.exists()


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        assert main(["verify", "--suite", "mehler", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mehler: pass")
        assert "involution" not in out

    @pytest.mark.parametrize("n", [1, 2])
    def test_mehler_checks_general_draws_at_its_dimension(self, capsys, n):
        assert main(["verify", "--suite", "mehler", "--n", str(n), "--seed", "5"]) == 0
        assert capsys.readouterr().out.startswith("mehler: pass")
        checks = verify.suite_mehler(seed=5, n=n).checks
        general = [c for c in checks if c.label.startswith("general convolution")]
        assert len(general) == 4 and all(c.ok for c in general)

    @pytest.mark.parametrize("n", [4, 8])
    def test_every_suite_passes_at_the_dimensions_classify_runs(self, capsys, n):
        assert main(["verify", "--n", str(n)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == list(verify.SUITES)
        assert all(line.split(":")[1].startswith(" pass") for line in lines)

    def test_dimension_past_eight_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--n", "9"])

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense"])


class TestOracleCommand:
    def test_trend_and_decay(self, tmp_path, capsys):
        path = write_model_file(tmp_path / "p.yaml", complex(-0.5))
        assert main(["oracle", path, "--experiment", "trend", "-N", "5,10,20"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["plateau"] is True
        assert out["norms"][-1] == pytest.approx(0.5, abs=1e-10)

        assert main(["oracle", path, "--experiment", "decay", "-N", "30"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ratio"] == pytest.approx(0.5, abs=0.02)

    def test_weyl_experiment(self, tmp_path, capsys):
        path = write_model_file(tmp_path / "p.yaml", complex(-0.5))
        assert main(["oracle", path, "--experiment", "weyl"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_rel_error"] < 1e-6

    GENERAL_N1 = (
        "n: 1\nphi0:\n  hermitian: [[[0.25, 0.0]]]\n"
        "q:\n  xx: [[[0.05, 0.1]]]\n  xbarx: [[[-0.3, 0.4]]]\n  xbarxbar: [[[0.02, -0.1]]]\n"
    )

    def test_weyl_general_n1(self, tmp_path, capsys):
        path = tmp_path / "p.yaml"
        path.write_text(self.GENERAL_N1)
        assert main(["oracle", str(path), "--experiment", "weyl"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"experiment", "points", "max_rel_error"}
        assert len(out["points"]) == 3 and out["max_rel_error"] <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weyl_with_a_large_linear_term(self, tmp_path, capsys):
        # |alpha| = 153.9 at 2 e_1 once asked for a Gauss-Hermite order above
        # 5000 and exited 3; the convolution is a completed square now
        path = tmp_path / "p.yaml"
        path.write_text("n: 1\nphi0:\n  hermitian: [[[12.41, 0.0]]]\n"
                        "q:\n  xx: [[[0.685, -4.73]]]\n  xbarx: [[[-564.2, 2392.0]]]\n"
                        "  xbarxbar: [[[0.685, 4.73]]]\n")
        assert main(["oracle", str(path), "--experiment", "weyl"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_rel_error"] <= 1e-6

    def test_coherent_experiment(self, tmp_path, capsys):
        path = write_model_file(tmp_path / "p.yaml", complex(-0.5))
        assert main(["oracle", path, "--experiment", "coherent"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["slope"] == pytest.approx(-0.1875, rel=0.01)

    def test_inadmissible_exits_two(self, tmp_path, capsys):
        path = write_model_file(tmp_path / "p.yaml", complex(0.3))
        assert main(["oracle", path, "--experiment", "trend"]) == 2

    def test_n2_trend_at_default_sizes(self, tmp_path, capsys):
        # N = 40 at n = 2 reaches total degree 8
        path = tmp_path / "p.yaml"
        path.write_text(
            "n: 2\nphi0:\n  hermitian: [[[0.25, 0], [0, 0]], [[0, 0], [0.2, 0]]]\n"
            "q:\n  xx: [[[0.05, 0.02], [0.01, 0]], [[0.01, 0], [-0.03, 0.01]]]\n"
            "  xbarx: [[[0.1, 0.05], [0.02, -0.01]], [[0.03, 0], [-0.2, 0.1]]]\n"
        )
        start = time.perf_counter()
        assert main(["oracle", str(path), "--experiment", "trend"]) == 0
        assert time.perf_counter() - start < 10.0
        out = json.loads(capsys.readouterr().out)
        assert out["sizes"] == [10, 20, 40]
        assert all(b >= a for a, b in zip(out["norms"], out["norms"][1:]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_huge_basis_refused_before_allocating(self, tmp_path, n):
        path = (write_model_file(tmp_path / "p.yaml", complex(-0.5)) if n == 1
                else str(DATA / "classify_n2.yaml"))
        proc = run_capped("oracle", path, "--experiment", "trend", "-N", "100000000000000000000")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    DIAGONAL_LEVI_N1 = (
        "n: 1\nphi0:\n  hermitian: [[[0.30472865, 0.0]]]\n"
        "q:\n  xx: [[[0.20360868, 0.08188701]]]\n  xbarx: [[[0.05530899, -0.06653233]]]\n"
        "  xbarxbar: [[[-0.32294092, 0.22436008]]]\n"
    )

    def test_top_degree_section_is_finite(self, tmp_path):
        # the top-degree entries stay finite: |x|^199 at the far nodes of a
        # quadrature rule overflowed, and the SVD of the section did not converge
        path = tmp_path / "p.yaml"
        path.write_text(self.DIAGONAL_LEVI_N1)
        proc = run_capped("oracle", str(path), "--experiment", "trend", "-N", "200")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        norms = json.loads(proc.stdout)["norms"]
        assert len(norms) == 1 and np.isfinite(norms[0])

    def test_coherent_norm_out_of_range_exits_three(self, tmp_path):
        # q = 0.4995 x^2 / 2 on |x|^2 / 4, close to the admissibility limit
        # 1/2: the log-norm grows by about 250 per unit of |w|^2, and the
        # norm at 2 e_1 passes the float maximum (the radii follow the scale
        # of the Levi form, so a dilated file no longer gets there)
        path = tmp_path / "p.yaml"
        path.write_text("n: 1\nphi0:\n  hermitian: [[[0.25, 0.0]]]\nq:\n  xx: [[[0.4995, 0.0]]]\n")
        proc = run_capped("oracle", str(path), "--experiment", "coherent")
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("numerical failure:") and proc.stderr.count("\n") == 1
        assert "2.000e+00 leaves the double range" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("n,h", [(1, "20000.0"), (1, "1.0e+7"), (2, "200.0")])
    def test_coherent_lists_no_basis(self, tmp_path, capsys, monkeypatch, n, h):
        # a trivial symbol on a dilated Levi form: the norms are 1, in closed
        # form, whatever the state's degree
        def never(*args):
            raise AssertionError("basis listed")

        monkeypatch.setattr(oracle, "monomial_indices", never)
        path = tmp_path / "p.yaml"
        levi = ", ".join(f"[{', '.join(f'[{h}, 0]' if i == j else '[0, 0]' for j in range(n))}]"
                         for i in range(n))
        path.write_text(f"n: {n}\nphi0:\n  hermitian: [{levi}]\n")
        assert main(["oracle", str(path), "--experiment", "coherent"]) == 0
        out = json.loads(capsys.readouterr().out)
        # each log-norm is a difference of terms near Phi(4 e_1) = 16 h
        assert max(map(abs, out["log_norms"])) <= 1e-14 * 16.0 * float(h)

    def test_weyl_on_a_tiny_levi_form(self, tmp_path, capsys):
        # det(H) = 1e-400 is below the double range; its logarithm is not
        path = tmp_path / "p.yaml"
        path.write_text(TINY_LEVI_N2)
        assert main(["oracle", str(path), "--experiment", "weyl"]) == 0
        assert json.loads(capsys.readouterr().out)["max_rel_error"] <= 1e-12

    OVERFLOW_N1 = ("n: 1\nphi0:\n  hermitian: [[[1.0e+308, 0.0]]]\n"
                   "q:\n  xbarx: [[[-1.0e+308, 0.0]]]\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("experiment", ["trend", "decay", "weyl", "coherent"])
    def test_overflow_near_the_float_maximum_exits_three(self, tmp_path, capsys, experiment):
        # classify accepts the problem, but twice or four times H, and 6 Phi(e_1),
        # pass the double range
        path = tmp_path / "p.yaml"
        path.write_text(self.OVERFLOW_N1)
        assert main(["classify", str(path)]) == 0
        capsys.readouterr()
        assert main(["oracle", str(path), "--experiment", experiment]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1
        assert "double range" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weyl_value_past_the_double_range_exits_three(self, tmp_path, capsys):
        # the convolution and the closed form at 2 e_1 are near e^2000: their
        # relative error was NaN, reported with exit 0
        path = tmp_path / "p.yaml"
        path.write_text("n: 1\nphi0:\n  hermitian: [[[1000.0, 0.0]]]\n"
                        "q:\n  xbarx: [[[500.0, 100.0]]]\n")
        assert main(["oracle", str(path), "--experiment", "weyl"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1
        assert "2.000e+00 leaves the double range" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sizes", ["180", "400"])
    def test_radial_section_past_the_laguerre_limit(self, tmp_path, capsys, sizes):
        # a Gauss-Laguerre rule of order size + 10 overflowed from order 187;
        # the moment recurrence gives the exact |2h / (2h - lam)|^(k+1)
        path = write_model_file(tmp_path / "p.yaml", complex(-0.5, 0.1))
        assert main(["oracle", path, "--experiment", "trend", "-N", sizes]) == 0
        norms = json.loads(capsys.readouterr().out)["norms"]
        assert norms == [pytest.approx(abs(0.5 / (0.5 - (-0.5 + 0.1j))), rel=1e-12)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sizes", ["1000000"])
    def test_radial_rule_beyond_its_finite_order_refused(self, tmp_path, capsys, sizes):
        # a section of size 10^6 needs 16 TB, far past the oracle's budget
        path = write_model_file(tmp_path / "p.yaml", complex(-0.5, 0.1))
        assert main(["oracle", path, "--experiment", "trend", "-N", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    SEPARABLE_N1 = "n: 1\nphi0:\n  hermitian: [[[0.25, 0.0]]]\nq:\n  xbarx: [[[-0.4, 0.2]]]\n"

    @pytest.mark.parametrize("experiment,source", [
        ("weyl", "separable"), ("coherent", "separable"), ("weyl", "classify_n2"),
        *((experiment, f"general n{n}") for n in (2, 3, 4, 8)
          for experiment in ("weyl", "coherent")),
    ])
    def test_output_is_the_verify_evidence(self, tmp_path, capsys, experiment, source):
        # a general draw has a non-diagonal Levi form; the closed forms take
        # any n
        path = tmp_path / "p.yaml"
        if source == "separable":
            path.write_text(self.SEPARABLE_N1)
        elif source == "classify_n2":
            path = DATA / "classify_n2.yaml"
        else:
            n = int(source[-1])
            problem = verify.random_admissible_problem(np.random.default_rng(n), n)
            path.write_text(problem_text(problem))
        assert main(["oracle", str(path), "--experiment", experiment]) == 0
        evidence = getattr(verify, f"{experiment}_evidence")(load_problem(str(path)))
        assert capsys.readouterr().out == io.json_text(evidence) + "\n"
        if experiment == "weyl":
            assert evidence["max_rel_error"] <= 1e-12
        else:
            pred = evidence["predicted_slope"]
            assert abs(evidence["slope"] - pred) <= 1e-9 * max(1.0, abs(pred))

    @pytest.mark.parametrize("case", [
        "sizes abc", "sizes 0", "sizes -3", "sizes 10,,20",
        "pluriharmonic", "non-diagonal", "n3 trend",
        "tiny-pluriharmonic", "tiny-non-diagonal",
        "pluriharmonic decay", "pluriharmonic coherent", "non-diagonal decay", "n3 decay",
    ])
    def test_refusals_exit_two(self, tmp_path, capsys, case):
        h1 = "[[[0.25, 0.0]]]"
        h3 = "[[[0.25, 0], [0, 0], [0, 0]], [[0, 0], [0.25, 0], [0, 0]], [[0, 0], [0, 0], [0.25, 0]]]"
        files = {
            "pluriharmonic": f"n: 1\nphi0:\n  hermitian: {h1}\n  pluriharmonic: [[[0.05, 0.0]]]\n",
            "non-diagonal": "n: 2\nphi0:\n  hermitian: [[[0.25, 0], [0.05, 0]], [[0.05, 0], [0.25, 0]]]\n",
            "n3": f"n: 3\nphi0:\n  hermitian: {h3}\n",
            # the same refusals far below unit scale: the tests are relative to H
            "tiny-pluriharmonic": "n: 1\nphi0:\n  hermitian: [[[1.0e-20, 0.0]]]\n"
                                  "  pluriharmonic: [[[1.0e-22, 0.0]]]\n",
            "tiny-non-diagonal": "n: 2\nphi0:\n  hermitian: [[[1.0e-20, 0], [5.0e-21, 0]], "
                                 "[[5.0e-21, 0], [1.0e-20, 0]]]\n",
        }
        kind, _, arg = case.partition(" ")
        path = tmp_path / "p.yaml"
        path.write_text(files.get(kind, f"n: 1\nphi0:\n  hermitian: {h1}\n"))
        argv = ["oracle", str(path), "--experiment", "trend"]
        if kind == "sizes":
            argv += ["-N", arg]
        elif arg:
            argv[-1] = arg
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestBenchmarkNames:
    """perfbench calls bargtop.cli.main and load_problem, and traces
    cli.load_problem, cli.build_report and cli.main by these names."""

    def test_cli_keeps_the_names(self):
        assert cli.load_problem is io.load_problem
        assert cli.json_text is io.json_text
        assert callable(cli.build_report) and callable(cli.main)
