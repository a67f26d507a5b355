"""Problem files and reports.

Problem files are YAML with every complex number written as a two-element
[re, im] array.  :func:`load_problem` reads a file in canonical form (one
schema key per line, each value one number or a one-line flow sequence)
with a strict reader of its own, and any other file with one PyYAML load;
both give the document ``yaml.safe_load`` gives.  Reports are JSON in the
same [re, im] convention, written by :func:`json_text`.
"""

from __future__ import annotations

import functools
import json
import math
import re
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ProblemFileError
from .forms import ComplexQuadraticForm, Weight, parse_tolerance
from .toeplitz import ToeplitzProblem

# the PyYAML loader class, set on PyYAML's first import (_yaml)
_YAML_LOADER = None


# ---------------------------------------------------------------------------
# problem files

# The canonical form: `key: value` lines of schema keys, nested keys at
# indent 2, each value one number or a one-line flow sequence at most three
# deep, every number a JSON number that YAML 1.1 resolves to the same int or
# float.  A line is a key, the text after it up to a comment, and the
# comment; the value is that text without its surrounding spaces, so no
# space is left for two parts of a pattern to share.  One flat pattern
# checks the value: it holds only the characters of numbers and sequences,
# with brackets that close and nest at most three deep.  json.loads then
# parses it, after the one rule of YAML 1.1 floats that JSON lacks: an
# exponent follows a fraction and has a sign (YAML reads 1e5 and 1.0e5 as
# strings).  Each check takes time linear in the line, and json.loads never
# recurses deeper than three.
_CHARS = r"[-+.,0-9eE ]*"
_NESTED = _CHARS
for _ in range(3):
    _NESTED = rf"{_CHARS}(?:\[{_NESTED}\]{_CHARS})*"
_VALUE = re.compile(_NESTED)
_KEY_LINE = re.compile(
    r"(  )?(n|phi0|hermitian|pluriharmonic|q|xx|xbarx|xbarxbar|tolerances|classification):"
    r"( [^#]*)?(#[ -~]*)?")
_BLANK_LINE = re.compile(r" *(?:#[ -~]*)?")
_SIGNED_EXPONENT = re.compile(r"\.[0-9]+[eE][-+]")


def _read_canonical(text: str) -> dict | None:
    """The document of ``text`` when it is in canonical form, else None.

    Returns exactly what ``yaml.safe_load`` returns for such a text.  Any
    other text, including a duplicate key, a key with neither a value nor
    nested lines, and an integer past ``int``'s digit limit, gives None.
    """
    if not text.isascii() or not text.endswith("\n"):
        return None
    data, block = {}, None  # block: the nested mapping being filled
    for line in text[:-1].split("\n"):
        match = _KEY_LINE.fullmatch(line)
        if match is None:
            if _BLANK_LINE.fullmatch(line):
                continue
            return None
        indent, key, rest, comment = match.groups()
        rest = rest or ""
        if comment is not None and not rest.endswith(" "):
            return None  # YAML reads a # after a non-space as text
        value = rest.strip(" ")
        if value and _VALUE.fullmatch(value) is None:
            return None
        if indent:
            target = block
        elif block == {}:  # the previous key has neither a value nor nested lines
            return None
        else:
            target, block = data, None
        if target is None or key in target:
            return None
        if value:
            exponents = value.count("e") + value.count("E")
            if exponents and len(_SIGNED_EXPONENT.findall(value)) != exponents:
                return None
            try:
                target[key] = json.loads(value)
            except ValueError:  # not a JSON value, or an integer past int's digit limit
                return None
        elif indent:
            return None
        else:
            block = target[key] = {}
    if not data or block == {}:
        return None
    return data


def _yaml():
    """PyYAML, imported on first use: canonical files never need it."""
    global _YAML_LOADER
    import yaml

    if _YAML_LOADER is None:
        # libyaml's parser when this PyYAML build has it; both resolve YAML
        # 1.1 tags the same way, the C one parses several times faster
        _YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return yaml


# PyYAML composes recursively, libyaml's composer in C where some 4e4 levels
# overflow the stack; problem files nest five deep, so deeper ones are
# refused before composing
_MAX_NESTING = 64


def _numeric_string(value) -> bool:
    try:
        return isinstance(value, str) and math.isfinite(float(value))
    except ValueError:
        return False


def _complex_entry(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        # YAML 1.1 reads 1e-3 and 1.0e300 as strings: say so
        for v in value if isinstance(value, (list, tuple)) else ():
            if _numeric_string(v):
                raise ProblemFileError(
                    f"{where}: {v!r} is read as a string, not a number; YAML 1.1 "
                    f"floats need a '.' in the mantissa and a signed exponent "
                    f"(write -5.0e-1, 1.0e+300)"
                )
        raise ProblemFileError(f"{where}: complex entries must be [re, im] number pairs")
    try:
        return complex(float(value[0]), float(value[1]))
    except OverflowError as exc:
        raise ProblemFileError(f"{where}: integer too large for a float") from exc


def _complex_matrix(rows, n: int, where: str, numbers: bool = False) -> np.ndarray:
    # one conversion when every entry is an [re, im] pair of numbers; the
    # per-entry path below names the first entry that is not.  ``numbers``
    # says that every scalar in ``rows`` is an int or a float, as in a
    # canonical document, so the conversion need only check the shape
    if numbers:
        try:
            values = np.array(rows, dtype=float)
        except (ValueError, OverflowError):  # ragged, or an integer past the float range
            values = None
        if values is not None and values.shape == (n, n, 2):
            return values.view(complex).reshape(n, n)
    if isinstance(rows, list) and len(rows) == n and all(
            isinstance(row, list) and len(row) == n for row in rows):
        entries = [entry for row in rows for entry in row]
        if all(isinstance(entry, list) and len(entry) == 2 for entry in entries):
            values = [v for entry in entries for v in entry]
            if {type(v) for v in values} <= {float, int}:
                try:
                    return np.array(values, dtype=float).view(complex).reshape(n, n)
                except OverflowError:
                    pass
    if not isinstance(rows, list) or len(rows) != n:
        raise ProblemFileError(f"{where}: expected {n} rows")
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ProblemFileError(f"{where}[{i}]: expected {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = _complex_entry(entry, f"{where}[{i}][{j}]")
    return out


def _file_tolerance(data) -> float | None:
    tols = data.get("tolerances")
    if tols is None:
        return None
    if not isinstance(tols, dict):
        raise ProblemFileError("tolerances: must be a mapping")
    value = tols.get("classification")
    if value is None:
        return None
    try:
        return parse_tolerance(value, "tolerances.classification")
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc


def _too_deep(text: str) -> bool:
    # a flow level opens on '{' or '[', and a '[' may hold one more, the
    # single-pair mapping of an entry `k: v`; a block level starts at a
    # deeper column than its parent, or at the same one for a sequence that
    # is a mapping's value; so most files need no parse to rule it out
    longest = max(map(len, text.split("\n")))
    if 2 * text.count("[") + text.count("{") + 2 * longest <= _MAX_NESTING:
        return False
    yaml = _yaml()
    depth = 0
    try:
        for event in yaml.parse(text, Loader=_YAML_LOADER):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > _MAX_NESTING:
                    return True
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    except yaml.YAMLError:
        pass  # the load reports it
    return False


def _read_document(path: str) -> tuple:
    """(the document of a problem file, whether it is in canonical form):
    the canonical reader's document, else PyYAML's."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # undecodable bytes
        raise ProblemFileError(f"{path}: not valid YAML: {exc}") from exc
    data = _read_canonical(text)
    if data is not None:
        return data, True
    if _too_deep(text):
        raise ProblemFileError(f"{path}: not valid YAML: nested deeper than {_MAX_NESTING} levels")
    yaml = _yaml()
    try:
        return yaml.load(text, Loader=_YAML_LOADER), False
    except (yaml.YAMLError, ValueError) as exc:
        # one line: the problem and where PyYAML marks it; a ReaderError, and
        # the ValueError of a tagged scalar such as !!float abc, have no mark
        mark = getattr(exc, "problem_mark", None)
        problem = str(exc).split("\n")[0] if mark is None else (
            f"{exc.problem} (line {mark.line + 1}, column {mark.column + 1})")
        raise ProblemFileError(f"{path}: not valid YAML: {problem}") from exc


def load_problem(path: str) -> ToeplitzProblem:
    """Parse a YAML problem file into a problem instance.

    The file's ``tolerances.classification``, when given, becomes the
    problem's tolerance and governs its admissibility check and its
    classification.
    """
    data, numbers = _read_document(path)
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: top level must be a mapping")
    if "n" not in data:
        raise ProblemFileError("n: field is required")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ProblemFileError("n: must be a positive integer")
    phi = data.get("phi0")
    if not isinstance(phi, dict) or "hermitian" not in phi:
        raise ProblemFileError("phi0.hermitian: field is required")
    h = _complex_matrix(phi["hermitian"], n, "phi0.hermitian", numbers)
    zero = [[[0.0, 0.0]] * n for _ in range(n)]
    p = _complex_matrix(phi.get("pluriharmonic", zero), n, "phi0.pluriharmonic", numbers)
    qdata = data.get("q", {})
    if not isinstance(qdata, dict):
        raise ProblemFileError("q: must be a mapping")
    qxx = _complex_matrix(qdata.get("xx", zero), n, "q.xx", numbers)
    qxbx = _complex_matrix(qdata.get("xbarx", zero), n, "q.xbarx", numbers)
    qxbxb = _complex_matrix(qdata.get("xbarxbar", zero), n, "q.xbarxbar", numbers)
    tol = _file_tolerance(data)
    try:
        weight = Weight(h, p)
        q = ComplexQuadraticForm(qxx, qxbx, qxbxb)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    return ToeplitzProblem(weight, q, tol)


# ---------------------------------------------------------------------------
# reports: complex numbers strictly as [re, im]

def cpx(z) -> list:
    """A complex scalar as its report entry [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


def _float_text(x) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


@functools.lru_cache(maxsize=64)
def _array_template(shape: tuple, level: int) -> str:
    # the json layout of a complex array of this shape at this depth, one
    # %r per float
    text = json.dumps(np.zeros(shape + (2,)).tolist(), indent=2)
    return text.replace("0.0", "%r").replace("\n", "\n" + "  " * level)


def _write(obj, level: int, out: list) -> None:
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, np.ndarray) and obj.dtype == complex:
        text = _array_template(obj.shape, level) % tuple(obj.ravel().view(float).tolist())
        if "n" in text:  # only in nan and inf
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        out.append(text)
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        if not obj:
            out.append("{}" if is_dict else "[]")
            return
        inner = "\n" + "  " * (level + 1)
        out.append("{" if is_dict else "[")
        for i, item in enumerate(sorted(obj) if is_dict else obj):
            out.append("," + inner if i else inner)
            if is_dict:
                out.append(encode_basestring_ascii(item) + ": ")
                item = obj[item]
            _write(item, level + 1, out)
        out.append("\n" + "  " * level + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    Complex ndarrays are written as nested [re, im] pairs, each through one
    ``%`` template per shape and depth instead of one encoder call per
    float. Keys must be strings.
    """
    out = []
    _write(obj, 0, out)
    return "".join(out)
