"""Problem-file loading and report writing (``bargtop.io``).

Canonical problem files go through a strict reader of their own and every
other file through one ``yaml.load``; the whole read path must give what
``yaml.load`` gives, or one ``error:`` line naming the file and, where
PyYAML marks it, the line and column.  The writer formats complex arrays
from templates and must agree exactly with ``json.dumps``.
"""

import functools
import json
import math
import re
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, event, given, settings, strategies as st

import bargtop.cli as cli
from bargtop import io
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


# texts that PyYAML reads recursively or refuses
LOADER_CASES = [
    "a: &a {b: *a}\n",
    "a: &a [1, *a]\n",
    "a: &a {<<: *a, b: 1}\n",
    "a: {<<: 1}\n",
    "a: {[1, 2]: 3}\n",
    "a: !!float abc\n",
    "a: [1, 2\n",
    "---\na: 1\n---\nb: 2\n",
    "",
]
LOADER_CASE_IDS = ["recursive-map", "recursive-seq", "self-merge", "bad-merge", "unhashable-key",
                   "bad-float-tag", "unclosed", "two-documents", "empty"]


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


def read_both(tmp_path, text, loader):
    """(read path result, yaml.load result); a failure stands for its type.

    The read path must fail exactly where ``yaml.load`` does, with one
    line that names the file.
    """
    path = tmp_path / "p.yaml"
    path.write_text(text)
    out = []
    try:
        with mock.patch.object(io, "_YAML_LOADER", loader):
            out.append(canonical(io._read_document(str(path))[0]))
    except ProblemFileError as exc:
        assert str(exc).startswith(f"{path}: not valid YAML: ") and "\n" not in str(exc)
        out.append("error")
    try:
        out.append(canonical(yaml.load(text, Loader=loader)))
    except (yaml.YAMLError, ValueError):
        out.append("error")
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
    """The whole read path (strict reader, nesting guard, ``yaml.load``) of
    non-canonical text, with either loader."""

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=documents())
    def test_reads_as_yaml_load(self, tmp_path, loader, text):
        read, loaded = read_both(tmp_path, text, loader)
        assert read == loaded

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    def test_edge_scalars_and_structures(self, tmp_path, loader):
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
        read, loaded = read_both(tmp_path, text, loader)
        assert read == loaded
        path = tmp_path / "p.yaml"
        with mock.patch.object(io, "_YAML_LOADER", loader):
            data = io._read_document(str(path))[0]
        assert data["one"] == {"x": -2.5, "y": data["all"], "w": 1}
        assert data["base"]["y"] is data["all"]
        assert [type(v).__name__ for v in data["all"][:8]] == ["str"] * 2 + ["float"] * 6

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("text", LOADER_CASES, ids=LOADER_CASE_IDS)
    def test_recursion_and_errors(self, tmp_path, loader, text):
        read, loaded = read_both(tmp_path, text, loader)
        assert read == loaded

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="this PyYAML build has no libyaml")
    def test_nesting_deeper_than_the_stack(self, tmp_path):
        # libyaml would compose 3000 levels; the guard refuses them first
        path = tmp_path / "p.yaml"
        path.write_text("a: " + "[" * 3000 + "1.5" + "]" * 3000 + "\n")
        with mock.patch.object(io, "_YAML_LOADER", yaml.CSafeLoader):
            with pytest.raises(ProblemFileError, match="nested deeper than 64 levels"):
                io._read_document(str(path))[0]

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    def test_syntax_error_is_one_line(self, tmp_path, capsys, loader):
        path = tmp_path / "p.yaml"
        path.write_text("n: 1\nphi0: [1\n")
        with mock.patch.object(io, "_YAML_LOADER", loader):
            assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(path))}: not valid YAML: "
                            r"[^\n]*'\]'[^\n]* \(line 3, column 1\)\n", err)


# ---------------------------------------------------------------------------
# the canonical form: `key: value` lines, flow values of JSON-and-YAML numbers

SCHEMA_KEYS = ["n", "phi0", "hermitian", "pluriharmonic", "q", "xx", "xbarx", "xbarxbar",
               "tolerances", "classification"]


def number_text(x):
    """``x`` as a canonical number: repr, with the '.' YAML 1.1 needs before an exponent."""
    text = repr(float(x))
    if "e" in text and "." not in text:
        mantissa, exponent = text.split("e")
        text = f"{mantissa}.0e{exponent}"
    return text


spaces = st.sampled_from(["", " ", "  "])
numbers = (
    st.integers(-10**30, 10**30).map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(number_text)
    | st.sampled_from(["0", "-0", "0.0", "-0.0", "1.0e+400", "-1.0e+400", "5.0e-324",
                       "0.10e-05", "7.5E+1", "123456789012345678901234567890.5"])
)


def flow(items, pads=spaces):
    def text(parts):
        inner, pad = parts
        return "[" + (",".join(a + v + b for a, v, b in inner) if inner else pad) + "]"
    return st.tuples(st.lists(st.tuples(pads, items, pads), max_size=3), pads).map(text)


# one number, or a flow sequence at most three deep
values = numbers
for _ in range(3):
    values = numbers | flow(values)
trailers = st.sampled_from(["", " ", "   ", " # note", "  # [x]: &y !z 'q'", " #"])
fillers = st.lists(st.sampled_from(["", "  ", "# note", "   # indented: [1]", "#"]), max_size=2)


@st.composite
def canonical_documents(draw, values=values, separators=(" ", "  "), trailers=trailers):
    """Text in canonical form, comments and blank lines included."""
    lines = draw(fillers)
    for key in draw(st.lists(st.sampled_from(SCHEMA_KEYS), min_size=1, max_size=5, unique=True)):
        if draw(st.booleans()):
            lines.append(f"{key}:{draw(st.sampled_from(separators))}{draw(values)}{draw(trailers)}")
        else:
            lines.append(f"{key}:{draw(trailers)}")
            nested = draw(st.lists(st.sampled_from(SCHEMA_KEYS), min_size=1, max_size=3, unique=True))
            for inner in nested:
                lines += draw(fillers)
                lines.append(f"  {inner}: {draw(values)}{draw(trailers)}")
        lines += draw(fillers)
    return "".join(line + "\n" for line in lines)


# text that YAML reads differently, or that the reader leaves to PyYAML
FRAGMENTS = [
    "1e-5", "1.0e5", ".5", "+1.0", "1.", "017", "0x1F", "1_000.5", "1E+5", "1:30", ".inf",
    "[", "]", ",", " ", "#", " #", ":", "- ", "{", "}", "x", "e", "-", "0", "[[[[1]]]]",
    "\t", "\r", "\r\n", "\ufeff", "\x85", "\u00e9", "&a ", "*a", "!!float ", "'", '"',
    # line breaks to YAML 1.1, not to str.split("\n")
    "\x85xx: [1]", "\u2028n: 2", "\u2029q: 3", "\rtolerances: 4",
    "---\n", "...\n", "\n", "  ", "on: 1\n", "no:\n", "null: 2\n", "yes: [1]\n", "n:\n",
    "q:\n", "  xx:\n", "%YAML 1.1\n",
]


@st.composite
def mutated_documents(draw):
    text = draw(canonical_documents())
    kind = draw(st.sampled_from(["insert", "delete", "crlf", "unterminated", "duplicate"]))
    if kind == "insert":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at:]
    if kind == "delete":
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + text[at + 1:]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "unterminated":
        return text[:-1]
    lines = text.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    return "".join(lines[:at + 1] + [lines[at]] + lines[at + 1:])


def assert_reads_as_yaml(text):
    """The reader returns None or, for every loader, exactly what yaml.load returns."""
    data = io._read_canonical(text)
    if data is None:
        return None
    for loader in LOADERS:
        assert canonical(data) == canonical(yaml.load(text, Loader=loader))
    return data


README_EXAMPLE = re.search(r"```yaml\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(),
                           re.DOTALL).group(1)


# The reader's grammar as one nested pattern, spelled out three levels
# deep: the reference the flat character test and json.loads must match.
_REFERENCE_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+][0-9]+)?)?"
_REFERENCE_VALUE = _REFERENCE_NUMBER
for _ in range(3):
    _REFERENCE_VALUE = (rf"(?:{_REFERENCE_NUMBER}|\[ *(?:{_REFERENCE_VALUE} *"
                        rf"(?:, *{_REFERENCE_VALUE} *)*)?\])")
_REFERENCE_KEY_LINE = re.compile(
    r"(  )?(n|phi0|hermitian|pluriharmonic|q|xx|xbarx|xbarxbar|tolerances|classification):"
    rf"(?: +({_REFERENCE_VALUE}))?(?: +#[ -~]*| *)")


def reference_read_canonical(text):
    """The canonical reader with its values checked by the nested pattern."""
    if not text.isascii() or not text.endswith("\n"):
        return None
    data, block = {}, None
    for line in text[:-1].split("\n"):
        match = _REFERENCE_KEY_LINE.fullmatch(line)
        if match is None:
            if re.fullmatch(r" *(?:#[ -~]*)?", line):
                continue
            return None
        indent, key, value = match.groups()
        if indent:
            target = block
        elif block == {}:
            return None
        else:
            target, block = data, None
        if target is None or key in target:
            return None
        if value is not None:
            try:
                target[key] = json.loads(value)
            except ValueError:
                return None
        elif indent:
            return None
        else:
            block = target[key] = {}
    if not data or block == {}:
        return None
    return data


# numbers, spacing and nesting on both sides of the grammar's edges
edge_numbers = numbers | st.sampled_from(
    ["1e5", "1.0e5", "1.0E+05", "1.5e-05", "-0", "01", "1.", "1" + "0" * 4999, "1.5e", "1.5e+",
     "2.5E-7", "-", "0.5.5", "1e-5", "1.0e+5e+5"])
edge_spaces = st.sampled_from(["", " ", "  ", "\t"])
edge_values = edge_numbers | st.just("[[[[1]]]]")
for _ in range(4):
    edge_values = edge_numbers | flow(edge_values, edge_spaces)
edge_separators = ("", " ", "  ", "      ", "\t", " \t")
edge_trailers = trailers | st.sampled_from(["#", "# x", "      ", "      # x", "\t", " \t# x", " x"])


class TestCanonicalReader:
    @settings(max_examples=300, deadline=None)
    @given(text=canonical_documents(edge_values, edge_separators, edge_trailers) | canonical_documents()
           | mutated_documents())
    def test_reads_what_the_nested_grammar_reads(self, text):
        # the flat test and json.loads accept what the nested pattern
        # accepts, and give what yaml.load gives
        data = assert_reads_as_yaml(text)
        reference = reference_read_canonical(text)
        event("read" if data is not None else "left to PyYAML")
        assert (data is None) == (reference is None)
        if data is not None:
            assert canonical(data) == canonical(reference)

    @settings(max_examples=100, deadline=None)
    @given(text=canonical_documents())
    def test_accepts_the_grammar_as_yaml_reads_it(self, text):
        assert assert_reads_as_yaml(text) is not None

    @settings(max_examples=200, deadline=None)
    @given(text=mutated_documents())
    def test_mutations_read_as_yaml_or_fall_back(self, text):
        event("read" if assert_reads_as_yaml(text) is not None else "left to PyYAML")

    @pytest.mark.parametrize("text", [
        "n: 1\nn: 2\n",
        "q:\n  xx: [1]\n  xx: [2]\n",
        "n: 1\nq:\n",
        "q:\n# a comment, no entries\nn: 1\n",
        "q:\n  xx:\n",
        "",
        "# only a comment\n",
        "---\nn: 1\n",
        "n: 1\n...\n",
        "n: &a 1\n",
        "n: !!int 1\n",
        "n: '1'\n",
        'n: "1"\n',
        "n:\t1\n",
        "\ufeffn: 1\n",
        "n: 1\x85",
        "n: 1 # c\x85q: [2]\n",
        "n: 1 # c\u2028q: [2]\n",
        "n: 1\r\nq:\r\n  xx: [1]\r\n",
        "n: 1",
        "xx: [[[[1]]]]\n",
        "q:\n  xx:\n    xbarx: [1]\n",
        "on: 1\n",
        "null: 1\n",
        "n:1\n",
        "n: 1#c\n",
        "n: 1 2\n",
        "xx: [1, 2,]\n",
        "xx: [1 2]\n",
        "xx: [1]\n  xbarx: [2]\n",
        " n: 1\n",
        "   n: 1\n",
    ] + [f"xx: [{number}]\n" for number in
         ["1e-5", "1.0e5", ".5", "+1.0", "1.", "017", "0x1F", "1_000.5", "1.0E5", "1:30", "-.inf"]],
    )
    def test_leaves_other_text_to_pyyaml(self, text):
        assert io._read_canonical(text) is None

    def test_readme_example_takes_the_strict_path(self):
        assert "#" in README_EXAMPLE
        data = assert_reads_as_yaml(README_EXAMPLE)
        assert data is not None and data["tolerances"] == {"classification": 1e-9}

    @pytest.mark.parametrize("text", [
        "xx: [[[" + "1" * 10**5 + "x, 0.0]]]\n",
        "xx: [[[" + "1" * 24 + "x, 0.0]]]\n",
        "xx: " + "[" * 10**5 + "]" * 10**5 + "\n",
        "xx: " + "[1, " * 10**5 + "\n",
        "xx: [[[1" + "0" * 4300 + ", 0.0]]]\n",
        "xx:" + " " * 10**5 + "x\n",
        "xx: 1" + " " * 10**5 + "x\n",
        "xx: [[[" + " " * 10**5 + "x\n",
        "xx: 1" + " " * 10**5 + "#\x01\n",
    ], ids=["digit-run", "backtracking", "nesting", "unclosed", "int-digit-limit",
            "space-run", "space-run-after-value", "space-run-in-brackets", "space-run-before-comment"])
    def test_linear_time_on_hostile_values(self, text):
        start = time.perf_counter()
        assert io._read_canonical(text) is None
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 3), data=st.data())
    def test_load_problem_is_the_same_on_both_paths(self, tmp_path, loader, n, data):
        def matrix():
            entry = st.tuples(numbers, numbers).map(lambda p: f"[{p[0]}, {p[1]}]")
            row = st.lists(entry, min_size=n, max_size=n).map(lambda r: "[" + ", ".join(r) + "]")
            return st.lists(row, min_size=n, max_size=n).map(lambda m: "[" + ", ".join(m) + "]")

        text = f"n: {n}\nphi0:\n  hermitian: {data.draw(matrix())}\n"
        if data.draw(st.booleans()):
            text += f"  pluriharmonic: {data.draw(matrix())}\n"
        blocks = data.draw(st.lists(st.sampled_from(["xx", "xbarx", "xbarxbar"]), unique=True))
        if blocks:
            text += "q:\n" + "".join(f"  {k}: {data.draw(matrix())}\n" for k in blocks)
        if data.draw(st.booleans()):
            text += f"tolerances:\n  classification: {data.draw(numbers)}\n"
        path = tmp_path / "p.yaml"
        path.write_text(text)
        assert io._read_canonical(text) is not None
        with mock.patch.object(io, "_YAML_LOADER", loader):
            strict = problem_outcome(str(path))
            with mock.patch.object(io, "_read_canonical", return_value=None):
                fallback = problem_outcome(str(path))
        assert strict == fallback


def problem_outcome(path):
    """The problem's matrices as float bits and its tolerance, or the exception raised."""
    try:
        problem = io.load_problem(path)
    except Exception as exc:  # extreme draws also fail past the reader, the same way
        assert not isinstance(exc, Warning), exc  # raised under filterwarnings = error
        return (type(exc).__name__, str(exc))
    blocks = (problem.weight.h, problem.weight.p, problem.q.qxx, problem.q.qxbx, problem.q.qxbxb)
    return ("ok", [b.view(np.int64).tolist() for b in blocks], repr(problem.tol))


def reference_matrix(rows, n, where):
    # the per-entry conversion the array path replaces
    if not isinstance(rows, list) or len(rows) != n:
        raise ProblemFileError(f"{where}: expected {n} rows")
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ProblemFileError(f"{where}[{i}]: expected {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = io._complex_entry(entry, f"{where}[{i}][{j}]")
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
        assert outcome(io._complex_matrix, rows, n, "m") == outcome(reference_matrix, rows, n, "m")

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 3), data=st.data())
    def test_numbers_path_equals_per_entry_path(self, n, data):
        # the scalars of a canonical document are ints and floats, in any shape
        scalar = self.numbers | st.just(10**400)
        pairs = st.lists(scalar, min_size=2, max_size=2)
        square = st.lists(st.lists(pairs, min_size=n, max_size=n), min_size=n, max_size=n)
        shaped = st.lists(st.lists(st.lists(scalar, max_size=3) | scalar, min_size=n - 1,
                                   max_size=n + 1), min_size=n - 1, max_size=n + 1)
        rows = data.draw(square | shaped | scalar)
        assert (outcome(io._complex_matrix, rows, n, "m", True)
                == outcome(reference_matrix, rows, n, "m"))

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
        with mock.patch.object(io, "_YAML_LOADER", loader):
            problem = io.load_problem(str(path))
        data = yaml.load(text, Loader=loader)
        n = data["n"]
        zero = [[[0.0, 0.0]] * n for _ in range(n)]
        phi, q = data["phi0"], data.get("q", {})
        ref = io.ToeplitzProblem(
            io.Weight(reference_matrix(phi["hermitian"], n, "h"),
                       reference_matrix(phi.get("pluriharmonic", zero), n, "p")),
            io.ComplexQuadraticForm(*(reference_matrix(q.get(k, zero), n, k)
                                       for k in ("xx", "xbarx", "xbarxbar"))),
            io._file_tolerance(data),
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
    ] + LOADER_CASES[2:], ids=["recursive-mapping", "recursive-sequence", "bomb", "bomb-matrix",
                               "bomb-entry", "bad-int-tag"] + LOADER_CASE_IDS[2:])
    def test_exit_two_in_bounded_time(self, tmp_path, capsys, text):
        path = tmp_path / "p.yaml"
        path.write_text(text)
        start = time.perf_counter()
        assert main(["classify", str(path)]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("first, refusal", [
        ("0, 0", "weight is not strictly plurisubharmonic"),
        ("1, 0", "weight is not strictly plurisubharmonic"),
        ("1.7e+308, 1.7e+308", "h must be Hermitian"),
    ], ids=["zero", "one", "imaginary-diagonal"])
    def test_levi_form_near_the_float_maximum(self, tmp_path, capsys, first, refusal):
        # H + H^H, H - H^H and |H| overflow to inf before any halving
        path = tmp_path / "p.yaml"
        path.write_text(f"n: 2\nphi0:\n  hermitian: [[[{first}], [0, 0]], "
                        "[[0, 0], [8.98846567431158e+307, 0]]]\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {refusal}") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "n: 1\nphi0:\n  hermitian: [[[" + "1" * 10**5 + "x, 0.0]]]\n",
        "n: 1\nphi0:\n  hermitian: " + "[" * 10**5 + "]" * 10**5 + "\n",
        "n: 1\nphi0:\n  hermitian: " + "[" * 10**5 + "\n",
        "n: 1\nphi0:\n  hermitian: [[[1" + "0" * 4300 + ", 0.0]]]\n",
        "n: 1\nphi0:\n  hermitian:\n    " + "- " * 10**5 + "1\n",
    ], ids=["digit-run", "nesting", "unclosed-nesting", "int-digit-limit", "block-nesting"])
    def test_near_canonical_exit_two_like_pyyaml(self, tmp_path, capsys, text):
        # the strict reader leaves these to PyYAML, which must not recurse
        # into libyaml's composer or a Python RecursionError
        path = tmp_path / "p.yaml"
        path.write_text(text)
        outcomes = []
        for strict in (True, False):
            with mock.patch.object(io, "_read_canonical",
                                   io._read_canonical if strict else (lambda text: None)):
                start = time.perf_counter()
                rc = main(["classify", str(path)])
                assert time.perf_counter() - start < 5.0
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            outcomes.append((rc, err))
        assert outcomes[0] == outcomes[1] and outcomes[0][0] == 2

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("value", [
        " " + "[" * 400 + "]" * 400 + "\n",
        "\n" + "    [a:\n" * 40 + "    1\n" + "    ]\n" * 40,
    ], ids=["brackets", "flow-pairs"])
    def test_nesting_limit_holds_for_every_loader(self, tmp_path, capsys, loader, value):
        # the pure-Python composer recurses in Python: 400 levels would
        # otherwise end in RecursionError; each `[a:` opens two levels
        path = tmp_path / "p.yaml"
        path.write_text("n: 1\nphi0:\n  hermitian:" + value)
        with mock.patch.object(io, "_YAML_LOADER", loader):
            assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: not valid YAML: nested deeper than 64 levels\n"

    @pytest.mark.parametrize("alias", ["c", "i"])
    def test_bomb_tolerance_message_is_short(self, tmp_path, capsys, alias):
        # *c holds 729 strings, *i about 3.9e8; the message shows a bounded prefix
        path = tmp_path / "p.yaml"
        path.write_text(BOMB + "n: 1\nphi0:\n  hermitian: [[[0.25, 0.0]]]\n"
                        f"tolerances:\n  classification: *{alias}\n")
        start = time.perf_counter()
        assert main(["classify", str(path)]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: tolerances.classification") and err.count("\n") == 1
        assert len(err) < 300


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
        assert io.json_text(obj) == json.dumps(plain(obj), indent=2, sort_keys=True)

    def test_report_keeps_arrays(self):
        problem = io.load_problem(str(DATA / "classify_n2.yaml"))
        report = cli.build_report(cli.classify_operator(problem), 0.0)
        assert isinstance(report["kappa"], np.ndarray) and report["kappa"].dtype == complex
        assert io.json_text(report) == json.dumps(plain(report), indent=2, sort_keys=True)

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
