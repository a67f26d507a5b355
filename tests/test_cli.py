import json
import os
import re
import time
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, event, given, settings, strategies as st

import bargtop.cli as cli
from bargtop import model, oracle, verify
from bargtop.cli import main, load_problem
from bargtop.errors import ProblemFileError


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
        monkeypatch.setattr(cli, "_read_canonical", lambda text: None)
        loaded = []
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            monkeypatch.setattr(cli, "_YAML_LOADER", loader)
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


def number_text(x):
    # repr, with the '.' YAML 1.1 needs before an exponent
    text = repr(float(x))
    return text.replace("e", ".0e") if "e" in text and "." not in text else text


def flow_matrix(m):
    return "[" + ", ".join(
        "[" + ", ".join(f"[{number_text(z.real)}, {number_text(z.imag)}]" for z in row) + "]"
        for row in m) + "]"


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
        a *= draw(st.floats(0.0, 0.95)) * (0.25 - lam.real) / norm
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
        assert cli._read_canonical(flow.read_text()) is not None
        assert cli._read_canonical(block.read_text()) is None
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


class TestScanCommand:
    def test_single_boundary_point(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--lambda-re", "0:0:1", "--lambda-im", "0",
                   "--norm-a", "0:0:1", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re_lambda,im_lambda,normA,verdict,margin"
        assert lines[1] == "0.0,0.0,0.0,bounded_not_compact,0.0"

    def test_deterministic_and_parallel_identical(self, tmp_path, capsys):
        args = ["--lambda-re", "-1:0.2:7", "--lambda-im", "0,0.5",
                "--norm-a", "0:0.2:3"]
        out1, out2, out3 = (tmp_path / f"s{i}.csv" for i in range(3))
        assert main(["scan", *args, "-o", str(out1)]) == 0
        assert main(["scan", *args, "-o", str(out2)]) == 0
        assert main(["scan", *args, "-o", str(out3), "--workers", "2"]) == 0
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

    def test_admissible_row_takes_two_svds_of_a(self, monkeypatch):
        # one per ModelInstance: the row's own and the model witness's
        svd, args, instances = np.linalg.svd, [], []
        post_init = model.ModelInstance.__post_init__

        def counting(m, *rest, **kwargs):
            args.append(m)
            return svd(m, *rest, **kwargs)

        def tracking(self):
            post_init(self)
            instances.append(self)

        monkeypatch.setattr(np.linalg, "svd", counting)
        monkeypatch.setattr(model.ModelInstance, "__post_init__", tracking)
        row = cli._scan_point((-0.5, 0.5, 0.1))
        assert row[3] == "compact" and len(instances) == 2
        assert sum(any(m is inst.a for inst in instances) for m in args) == 2

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

    def test_unwritable_output_fails_before_the_grid(self, tmp_path, capsys, monkeypatch):
        def never(point):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "_scan_point", never)
        out = tmp_path / "missing" / "scan.csv"
        assert main(["scan", "--lambda-re=-1:0:3", "--norm-a", "0:0.1:2", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}:") and err.count("\n") == 1

    @pytest.mark.parametrize("workers", ["0", "-3", "cpus + 1"])
    def test_workers_out_of_range_rejected(self, tmp_path, capsys, monkeypatch, workers):
        def never(point):
            raise AssertionError("the grid ran")

        if workers == "cpus + 1":
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count())
            workers = str(cpus + 1)
        monkeypatch.setattr(cli, "_scan_point", never)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--lambda-re=-1:0:3", "--norm-a", "0:0.1:2", "-o", str(out),
                     "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --workers:") and err.count("\n") == 1
        assert not out.exists()

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

    def test_weyl_reports_order_and_refinement(self, tmp_path, capsys):
        path = tmp_path / "p.yaml"
        path.write_text(self.GENERAL_N1)
        assert main(["oracle", str(path), "--experiment", "weyl"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["points"]) == 3 and out["max_rel_error"] <= 1e-9
        problem = load_problem(str(path))
        assert out["order"] == oracle.weyl_convolution(problem, [2.0]).order > 1
        assert 0.0 <= out["refinement"] <= 1e-12

    def test_weyl_refinement_above_bound_exits_three(self, tmp_path, capsys, monkeypatch):
        # a rule far below its derived order moves when the order is doubled
        monkeypatch.setattr(oracle.WeylConvolution, "order", property(lambda self: 2))
        path = tmp_path / "p.yaml"
        path.write_text(self.GENERAL_N1)
        assert main(["oracle", str(path), "--experiment", "weyl"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1
        assert "doubled" in captured.err

    def test_coherent_experiment(self, tmp_path, capsys):
        path = write_model_file(tmp_path / "p.yaml", complex(-0.5))
        assert main(["oracle", path, "--experiment", "coherent"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["slope"] == pytest.approx(-0.1875, rel=0.01)

    def test_inadmissible_exits_two(self, tmp_path, capsys):
        path = write_model_file(tmp_path / "p.yaml", complex(0.3))
        assert main(["oracle", path, "--experiment", "trend"]) == 2

    def test_n2_trend_at_default_sizes(self, tmp_path, capsys):
        # the Galerkin order follows the basis degree, so N = 40 at n = 2
        # needs a 9-point rule per real variable
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

    @pytest.mark.parametrize("case", [
        "sizes abc", "sizes 0", "sizes -3", "sizes 10,,20",
        "pluriharmonic", "non-diagonal", "n3 trend", "n3 weyl", "n3 coherent",
        "tiny-pluriharmonic", "tiny-non-diagonal",
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
        elif kind == "n3":
            argv[-1] = arg
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
