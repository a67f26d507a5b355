"""Problem-file loading and report writing in the CLI.

The loader builds libyaml's node graph in one walk and the writer formats
complex arrays from templates; both must agree exactly with the PyYAML and
``json`` calls they replace.
"""

import functools
import io
import json
import math
import re
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import bargtop.cli as cli
from bargtop.cli import main
from bargtop.errors import ProblemFileError

DATA = Path(__file__).parent / "data"

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])

# YAML 1.1 scalars whose type or value turns on the resolver or constructor
EDGE_SCALARS = [
    "1e-3", "-5e-1", "1.0e+300", "1_000.5", ".inf", "-.Inf", ".NaN", "190:20:30.15",
    "1__0.5", "0x1F", "017", "yes", "off", "~", '"1.5"', "'2'", '!!float "2"', "!!float 3",
    "0.25", "-0.0", "+.5", "1.", "7", "-12", "abc", "2001-12-14", "!!str 1.5",
    '!!int "7"', "1.5e+3", "1.5E-3", "-1.0e+400", "!!set {a, b}", "!!omap [{a: 1}, {b: 2}]",
]
KEYS = ["a", "b", "c", "1", "1.5", "~", "yes"]


def canonical(obj, seen=None):
    """A comparable form that keeps types, float bits and alias sharing."""
    seen = {} if seen is None else seen
    if isinstance(obj, (list, dict)):
        if id(obj) in seen:
            return ("ref", seen[id(obj)])
        seen[id(obj)] = len(seen)
        if isinstance(obj, list):
            return ("list", [canonical(v, seen) for v in obj])
        return ("dict", [(canonical(k, seen), canonical(v, seen)) for k, v in obj.items()])
    return (type(obj).__name__, repr(obj))


def load_both(text, loader):
    """(walk result, yaml.load result); an exception stands for its type and text."""
    out = []
    for load in (cli._load_yaml, lambda s: yaml.load(s, Loader=loader)):
        try:
            with mock.patch.object(cli, "_YAML_LOADER", loader):
                out.append(canonical(load(io.StringIO(text))))
        except (yaml.YAMLError, ValueError) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


@functools.lru_cache
def nodes(anchors):
    """Flow-style YAML text: edge scalars, aliases to the first ``anchors`` anchors, nesting."""
    leaves = st.sampled_from(EDGE_SCALARS)
    if anchors:
        leaves = leaves | st.sampled_from([f"*a{i}" for i in range(anchors)])
    return st.recursive(leaves, lambda inner: (
        st.lists(inner, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]")
        | st.lists(st.tuples(st.sampled_from(KEYS), inner), max_size=4).map(
            lambda kv: "{" + ", ".join(f"{k}: {v}" for k, v in kv) + "}")
    ), max_leaves=12)


@st.composite
def documents(draw):
    lines, mappings = [], []
    anchors = draw(st.integers(0, 3))
    for i in range(anchors):
        text = draw(nodes(i))
        lines.append(f"a{i}: &a{i} {text}")
        if text.startswith("{"):
            mappings.append(f"a{i}")
    # duplicate keys come from the small key set
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=5)):
        lines.append(f"{key}: {draw(nodes(anchors))}")
    if mappings and draw(st.booleans()):
        merged = draw(st.lists(st.sampled_from(mappings), min_size=1, max_size=3))
        source = f"*{merged[0]}" if len(merged) == 1 else "[" + ", ".join(f"*{m}" for m in merged) + "]"
        lines.append(f"merged: {{<<: {source}, a: {draw(nodes(anchors))}}}")
    return "".join(line + "\n" for line in lines)


class TestLoader:
    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    @settings(max_examples=100, deadline=None)
    @given(text=documents())
    def test_walk_equals_yaml_load(self, loader, text):
        walked, loaded = load_both(text, loader)
        assert walked == loaded

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    def test_edge_scalars_and_structures(self, loader):
        scalars = ", ".join(EDGE_SCALARS)
        text = (
            f"all: &all [{scalars}]\n"
            "base: &base {x: 1.5, y: *all, x: -2.5}\n"
            "more: &more {z: .NaN, x: 9.0}\n"
            "one: {<<: *base, w: 1}\n"
            "two: {<<: [*base, *more], x: 0.0}\n"
            "same: *all\n"
            "same: [*base, *more]\n"
        )
        walked, loaded = load_both(text, loader)
        assert walked == loaded
        with mock.patch.object(cli, "_YAML_LOADER", loader):
            data = cli._load_yaml(io.StringIO(text))
        assert data["one"] == {"x": -2.5, "y": data["all"], "w": 1}
        assert data["base"]["y"] is data["all"]
        assert [type(v).__name__ for v in data["all"][:8]] == ["str"] * 2 + ["float"] * 6

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("text", [
        "a: &a {b: *a}\n",
        "a: &a [1, *a]\n",
        "a: &a {<<: *a, b: 1}\n",
        "a: {<<: 1}\n",
        "a: {[1, 2]: 3}\n",
        "a: !!float abc\n",
        "a: [1, 2\n",
        "---\na: 1\n---\nb: 2\n",
        "",
    ], ids=["recursive-map", "recursive-seq", "self-merge", "bad-merge", "unhashable-key",
            "bad-float-tag", "unclosed", "two-documents", "empty"])
    def test_recursion_and_errors(self, loader, text):
        walked, loaded = load_both(text, loader)
        assert walked == loaded

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="this PyYAML build has no libyaml")
    def test_nesting_deeper_than_the_stack(self):
        # libyaml composes 3000 levels; the walk hands deep nodes to the
        # loader's breadth-first constructor instead of recursing
        text = "a: " + "[" * 3000 + "1.5" + "]" * 3000 + "\n"
        with mock.patch.object(cli, "_YAML_LOADER", yaml.CSafeLoader):
            value = cli._load_yaml(io.StringIO(text))["a"]
        depth = 0
        while isinstance(value, list) and len(value) == 1:
            value, depth = value[0], depth + 1
        assert (depth, value) == (3000, 1.5)


def reference_matrix(rows, n, where):
    # the per-entry conversion the array path replaces
    if not isinstance(rows, list) or len(rows) != n:
        raise ProblemFileError(f"{where}: expected {n} rows")
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ProblemFileError(f"{where}[{i}]: expected {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = cli._complex_entry(entry, f"{where}[{i}][{j}]")
    return out


def outcome(fn, *args):
    try:
        value = fn(*args)
    except ProblemFileError as exc:
        return ("error", str(exc))
    return ("ok", value.shape, value.dtype, value.view(np.float64).view(np.int64).tolist())


class TestMatrices:
    numbers = st.floats(allow_nan=False, width=64) | st.integers(-10**20, 10**20)
    scalars = numbers | st.booleans() | st.text(max_size=3) | st.none()
    entries = st.lists(numbers, min_size=2, max_size=2) | st.lists(scalars, max_size=3) | numbers

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 3), data=st.data())
    def test_array_path_equals_per_entry_path(self, n, data):
        def square(values):
            pairs = st.lists(values, min_size=2, max_size=2)
            return st.lists(st.lists(pairs, min_size=n, max_size=n), min_size=n, max_size=n)

        mixed = st.lists(st.lists(self.entries, min_size=n - 1, max_size=n + 1),
                         min_size=n - 1, max_size=n + 1)
        rows = data.draw(square(self.numbers) | square(self.scalars) | mixed)
        assert outcome(cli._complex_matrix, rows, n, "m") == outcome(reference_matrix, rows, n, "m")

    def test_oversized_integer_exits_two(self, tmp_path, capsys):
        path = tmp_path / "p.yaml"
        path.write_text(f"n: 1\nphi0:\n  hermitian: [[[1{'0' * 400}, 0.0]]]\n")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: phi0.hermitian[0][0]: integer too large for a float\n"

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("text", [
        (DATA / "classify_n2.yaml").read_text(),
        "n: 2\nphi0:\n  hermitian: [[[1, 0], [0, 0]], [[0, 0], [2, -0.0]]]\n"
        "q: {xbarx: [[[-0.0, 1], [0.5, 0.25]], [[0.5, -0.25], [1.0e-300, 0.0]]]}\n"
        "tolerances: {classification: 1.0e-7}\n",
        "n: 1\nbase: &b {hermitian: [[[0.25, 0.0]]], pluriharmonic: [[[0.01, -0.02]]]}\n"
        "phi0: {<<: *b, hermitian: [[[0.5, 0.0]]]}\n"
        "q: {xx: [[[0.1, 0.2]]], xx: [[[0.03, -0.04]]], xbarxbar: [[[1_0.5, 0.0]]]}\n",
    ])
    def test_load_problem_equals_yaml_load_path(self, tmp_path, loader, text):
        path = tmp_path / "p.yaml"
        path.write_text(text)
        with mock.patch.object(cli, "_YAML_LOADER", loader):
            problem = cli.load_problem(str(path))
        data = yaml.load(text, Loader=loader)
        n = data["n"]
        zero = [[[0.0, 0.0]] * n for _ in range(n)]
        phi, q = data["phi0"], data.get("q", {})
        ref = cli.ToeplitzProblem(
            cli.Weight(reference_matrix(phi["hermitian"], n, "h"),
                       reference_matrix(phi.get("pluriharmonic", zero), n, "p")),
            cli.ComplexQuadraticForm(*(reference_matrix(q.get(k, zero), n, k)
                                       for k in ("xx", "xbarx", "xbarxbar"))),
            cli._file_tolerance(data),
        )
        for got, want in ((problem.weight.h, ref.weight.h), (problem.weight.p, ref.weight.p),
                          (problem.q.qxx, ref.q.qxx), (problem.q.qxbx, ref.q.qxbx),
                          (problem.q.qxbxb, ref.q.qxbxb)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert problem.tol == ref.tol


BOMB = "".join(
    [f"a: &a [{', '.join(['lol'] * 9)}]\n"]
    + [f"{c}: &{c} [{', '.join([f'*{p}'] * 9)}]\n" for p, c in zip("abcdefgh", "bcdefghi")]
)


class TestHostileFiles:
    @pytest.mark.parametrize("text", [
        "n: 1\nphi0: &a {hermitian: *a}\n",
        "n: 1\nphi0:\n  hermitian: &a [*a]\n",
        BOMB,
        BOMB + "n: 9\nphi0:\n  hermitian: *h\n",
        BOMB + "n: 1\nphi0:\n  hermitian: [[*i]]\n",
        "n: !!int abc\nphi0:\n  hermitian: [[[0.25, 0.0]]]\n",
    ], ids=["recursive-mapping", "recursive-sequence", "bomb", "bomb-matrix", "bomb-entry",
            "bad-int-tag"])
    def test_exit_two_in_bounded_time(self, tmp_path, capsys, text):
        path = tmp_path / "p.yaml"
        path.write_text(text)
        start = time.perf_counter()
        assert main(["classify", str(path)]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def plain(obj):
    # what build_report returned before matrices stayed arrays
    if isinstance(obj, np.ndarray):
        return np.stack([obj.real, obj.imag], axis=-1).tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    return obj


special = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-310, 5e300])
reals = st.floats(width=64) | special
scalars = (
    reals | reals.map(np.float64) | st.integers(-10**30, 10**30) | st.booleans()
    | st.none() | st.text(max_size=8)
)


@st.composite
def complex_arrays(draw):
    shape = draw(st.sampled_from([(1, 1), (2, 2), (3, 3), (4, 4), (2,), (2, 3)]))
    size = int(np.prod(shape))
    parts = draw(st.lists(reals, min_size=2 * size, max_size=2 * size))
    return np.array(parts, dtype=float).view(complex).reshape(shape)


reports = st.recursive(
    scalars | complex_arrays(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


class TestWriter:
    @settings(max_examples=120, deadline=None)
    @given(obj=reports)
    def test_equals_json_dumps(self, obj):
        assert cli.json_text(obj) == json.dumps(plain(obj), indent=2, sort_keys=True)

    def test_report_keeps_arrays(self):
        problem = cli.load_problem(str(DATA / "classify_n2.yaml"))
        report = cli.build_report(cli.classify_operator(problem), 0.0)
        assert isinstance(report["kappa"], np.ndarray) and report["kappa"].dtype == complex
        assert cli.json_text(report) == json.dumps(plain(report), indent=2, sort_keys=True)

    def test_classify_stdout_matches_golden_bytes(self, capsys):
        # the report of the json.dumps writer, timing aside
        assert main(["classify", str(DATA / "classify_n2.yaml")]) == 0
        out = capsys.readouterr().out
        timing = re.compile(r'"timing_seconds": [^,\n]+')
        golden = (DATA / "classify_n2.stdout").read_text()
        assert timing.sub("T", out) == timing.sub("T", golden)


class TestSharedParser:
    def test_repeated_main_leaks_no_state(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["scan", "--lambda-re=-1:0:3", "--lambda-im", "0,0.5",
                     "--norm-a", "0:0.1:2", "-o", str(first)]) == 0
        assert main(["classify", str(DATA / "classify_n2.yaml")]) == 0
        assert main(["scan", "--lambda-re", "0:0:1", "--norm-a", "0:0:1", "-o", str(second)]) == 0
        capsys.readouterr()
        assert len(first.read_text().splitlines()) == 13
        # --lambda-im falls back to its default, not to the first scan's values
        assert second.read_text().splitlines()[1:] == ["0.0,0.0,0.0,bounded_not_compact,0.0"]
        assert cli._parser() is cli._parser()
