"""Command line interface.

Subcommands: classify a problem file, scan the model-family parameter
grid to CSV, run the cross-validation suites, or run oracle experiments.
Problem files are YAML with every complex number written as a two-element
[re, im] array; reports are JSON in the same convention.

Exit codes: 0 ok, 1 verify failure, 2 inadmissible input, 3 numerical
failure or verdict disagreement.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import InadmissibleProblem, NumericalFailure, OracleRefusal, ProblemFileError
from .forms import ComplexQuadraticForm, Weight, classification_tolerance, parse_tolerance
from .toeplitz import ToeplitzProblem, Verdict, VerdictClass, classify_operator
from . import bergman, model, oracle, verify, weyl

EXIT_OK = 0
EXIT_VERIFY_FAILURE = 1
EXIT_INADMISSIBLE = 2
EXIT_NUMERICAL = 3

# largest relative change of `oracle --experiment weyl` under a doubled
# order; max_rel_error is held to the same bound
WEYL_REFINEMENT_BOUND = 1e-6

# the PyYAML loader class, set on PyYAML's first import (_yaml)
_YAML_LOADER = None


# ---------------------------------------------------------------------------
# problem file IO

# The canonical form: `key: value` lines of schema keys, nested keys at
# indent 2, each value one number or a one-line flow sequence at most three
# deep, every number a JSON number that YAML 1.1 resolves to the same int or
# float.  Every number is followed by a delimiter and the nesting is spelled
# out, so a match takes time linear in the line and json.loads never
# recurses deeper than three.
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+][0-9]+)?)?"
_VALUE = _NUMBER
for _ in range(3):
    _VALUE = rf"(?:{_NUMBER}|\[ *(?:{_VALUE} *(?:, *{_VALUE} *)*)?\])"
_KEY_LINE = re.compile(
    r"(  )?(n|phi0|hermitian|pluriharmonic|q|xx|xbarx|xbarxbar|tolerances|classification):"
    rf"(?: +({_VALUE}))?(?: +#[ -~]*| *)")
_BLANK_LINE = re.compile(r" *(?:#[ -~]*)?")


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
        indent, key, value = match.groups()
        if indent:
            target = block
        elif block == {}:  # the previous key has neither a value nor nested lines
            return None
        else:
            target, block = data, None
        if target is None or key in target:
            return None
        if value is not None:
            try:
                target[key] = json.loads(value)
            except ValueError:  # an integer past int's digit limit
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


def _complex_matrix(rows, n: int, where: str) -> np.ndarray:
    # one conversion when every entry is an [re, im] pair of numbers; the
    # per-entry path below names the first entry that is not
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


def _read_problem_data(path: str):
    """The document of a problem file: canonical form, else PyYAML's."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # undecodable bytes
        raise ProblemFileError(f"{path}: not valid YAML: {exc}") from exc
    data = _read_canonical(text)
    if data is not None:
        return data
    if _too_deep(text):
        raise ProblemFileError(f"{path}: not valid YAML: nested deeper than {_MAX_NESTING} levels")
    yaml = _yaml()
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
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
    data = _read_problem_data(path)
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
    h = _complex_matrix(phi["hermitian"], n, "phi0.hermitian")
    zero = [[[0.0, 0.0]] * n for _ in range(n)]
    p = _complex_matrix(phi.get("pluriharmonic", zero), n, "phi0.pluriharmonic")
    qdata = data.get("q", {})
    if not isinstance(qdata, dict):
        raise ProblemFileError("q: must be a mapping")
    qxx = _complex_matrix(qdata.get("xx", zero), n, "q.xx")
    qxbx = _complex_matrix(qdata.get("xbarx", zero), n, "q.xbarx")
    qxbxb = _complex_matrix(qdata.get("xbarxbar", zero), n, "q.xbarxbar")
    tol = _file_tolerance(data)
    try:
        weight = Weight(h, p)
        q = ComplexQuadraticForm(qxx, qxbx, qxbxb)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    return ToeplitzProblem(weight, q, tol)


# ---------------------------------------------------------------------------
# report serialization: complex numbers strictly as [re, im]

def _cpx(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _cmatrix(m) -> np.ndarray:
    # kept as an array; json_text writes it as nested [re, im] pairs
    return np.array(m, dtype=complex)


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


def build_report(verdict: Verdict, elapsed: float) -> dict:
    report = {
        "verdict": verdict.verdict.value,
        "boundary": verdict.boundary,
        "margins": {
            name: {"verdict": sub.verdict.value, "margin": sub.margin, "scale": sub.scale}
            for name, sub in verdict.witnesses.items()
        },
        "timing_seconds": elapsed,
    }
    if verdict.verdict is VerdictClass.INADMISSIBLE:
        report["failures"] = list(verdict.admissibility.failures)
        return report
    report["kappa"] = _cmatrix(verdict.kappa.k)
    symbol = verdict.symbol
    report["weyl_exponent"] = {
        "xx": _cmatrix(symbol.g.qxx),
        "xbarx": _cmatrix(symbol.g.qxbx),
        "xbarxbar": _cmatrix(symbol.g.qxbxb),
    }
    report["weyl_prefactor_modulus"] = symbol.prefactor_modulus
    f = verdict.bergman_form
    report["bergman_exponent"] = {
        "xx": _cmatrix(f.fxx),
        "xz": _cmatrix(f.fxz),
        "zz": _cmatrix(f.fzz),
    }
    return report


# ---------------------------------------------------------------------------
# classify

def _cmd_classify(args) -> int:
    try:
        problem = load_problem(args.file)
        start = time.perf_counter()
        verdict = classify_operator(problem)
        report = build_report(verdict, time.perf_counter() - start)
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(json_text(report))
    if verdict.verdict is VerdictClass.INADMISSIBLE:
        for line in verdict.admissibility.failures:
            print(f"inadmissible: {line}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan

def _grid_value(text: str, what: str, scale: float = 1.0) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what}: values must be finite, got {text}")
    if not math.isfinite(scale * value):
        raise ValueError(f"{what}: {scale:g} times each value must be finite, got {text}")
    return value


def _parse_range(text: str, what: str, scale: float = 1.0) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what}: expected a:b:steps")
    a, b = (_grid_value(v, what, scale) for v in parts[:2])
    steps = int(parts[2])
    if steps < 1 or (steps == 1 and a != b) or (steps > 1 and b <= a):
        raise ValueError(f"{what}: invalid range {text}")
    if not math.isfinite(b - a):  # np.linspace steps by (b - a) / (steps - 1)
        raise ValueError(f"{what}: b - a must be finite, got {text}")
    return np.linspace(a, b, steps)


def _parse_values(text: str, what: str) -> list:
    vals = [_grid_value(v, what) for v in text.split(",") if v != ""]
    if not vals:
        raise ValueError(f"{what}: empty list")
    if len(set(vals)) != len(vals):
        raise ValueError(f"{what}: duplicate values")
    return vals


def _check_workers(workers: int) -> None:
    # a fork pool starts all its workers at once: cap them at the CPUs
    # this process may run on
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"--workers: expected 1 to {cpus} (usable CPUs), got {workers}")


def _scan_point(point):
    re_lam, im_lam, norm_a = (float(v) for v in point)
    inst = model.ModelInstance(1, complex(re_lam, im_lam), np.array([[norm_a]]))
    # the pipeline's check keeps a tolerance band that the closed-form
    # condition Re lam + ||A|| < 1/4 does not, so it decides admissibility
    verdict = classify_operator(model.model_problem(inst))
    if verdict.verdict is VerdictClass.INADMISSIBLE:
        return (re_lam, im_lam, norm_a, "inadmissible", math.nan)
    # unlike DisagreementError, this counts a confident bounded_not_compact certificate
    closed = verdict.witnesses["model"]
    mismatch = (
        verdict.verdict is not closed.verdict
        and verdict.witnesses["certificate"].confident
        and closed.confident
    )
    if mismatch:
        raise NumericalFailure(
            f"pipeline={verdict.verdict.value} but closed form={closed.verdict.value} "
            f"at lam={complex(re_lam, im_lam)}, ||A||={norm_a}"
        )
    return (re_lam, im_lam, norm_a, verdict.verdict.value, verdict.margin)


def _cmd_scan(args) -> int:
    try:
        res = _parse_range(args.lambda_re, "--lambda-re")
        ims = _parse_values(args.lambda_im, "--lambda-im")
        # the model's symbol carries 2 ||A||
        nas = _parse_range(args.norm_a, "--norm-a", scale=2.0)
        _check_workers(args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    points = [(re, im, na) for re in res for im in ims for na in nas]
    # open the output before the grid runs; a failed grid leaves no file
    try:
        fh = open(args.output, "w", newline="")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    written = False
    try:
        if args.workers > 1:
            # imported here: it loads multiprocessing, which a serial scan never needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                rows = list(pool.map(_scan_point, points, chunksize=32))
        else:
            rows = [_scan_point(p) for p in points]
        writer = csv.writer(fh)
        writer.writerow(["re_lambda", "im_lambda", "normA", "verdict", "margin"])
        for re_lam, im_lam, norm_a, verdict, margin in rows:
            writer.writerow([repr(re_lam), repr(im_lam), repr(norm_a), verdict, repr(margin)])
        written = True
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        fh.close()
        # never a device or a link: -o may be /dev/null or /dev/stdout
        if not written and os.path.isfile(args.output) and not os.path.islink(args.output):
            os.remove(args.output)
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    names = [args.suite] if args.suite else None
    try:
        results = verify.run_suites(names, seed=args.seed, n=args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    failed = []
    for res in results:
        worst = res.worst
        status = "pass" if res.passed else "FAIL"
        detail = f"worst {worst.label}: {worst.value:.3e} (bound {worst.bound:.1e})" if worst else ""
        print(f"{res.name}: {status}  {detail}")
        if not res.passed:
            failed.append(res.name)
            for c in res.checks:
                if not c.ok:
                    print(f"  FAIL {c.label}: {c.value:.6e} > {c.bound:.1e}")
    if failed:
        print(f"failing suites: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle experiments

def _parse_sizes(text: str) -> list:
    try:
        sizes = [int(v) for v in text.split(",")]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise ValueError(
            f"-N/--sizes: expected a comma-separated list of positive integers, got {text!r}"
        )
    return sizes


def _cmd_oracle(args) -> int:
    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    try:
        problem = load_problem(args.file)
        problem.require_admissible()
        out = {"experiment": args.experiment}
        if args.experiment == "trend":
            norms = oracle.norm_trend(problem, sizes)
            out.update(sizes=sorted(sizes), norms=norms, plateau=oracle.is_plateau(norms))
        elif args.experiment == "decay":
            est = oracle.singular_decay(problem, max(sizes))
            out.update(size=max(sizes), ratio=est.ratio,
                       singular_values=[float(s) for s in est.singular_values[:12]])
        elif args.experiment == "weyl":
            symbol = weyl.weyl_symbol(problem)
            points = [np.zeros(problem.n, dtype=complex)]
            for r in (1.0, 2.0):
                pt = np.zeros(problem.n, dtype=complex)
                pt[0] = r
                points.append(pt)
            rows, orders, refinement = [], [], 0.0
            for pt in points:
                conv = oracle.weyl_convolution(problem, pt)
                orders.append(conv.order)
                num = conv.value(orders[-1])
                # self-check: the same rule at twice the derived order
                fine = conv.value(2 * orders[-1])
                refinement = max(refinement, abs(fine - num) / max(abs(fine), 1e-300))
                ref = symbol.evaluate(pt)
                rows.append({
                    "x": [_cpx(v) for v in pt],
                    "numeric": _cpx(num),
                    "closed_form": _cpx(ref),
                    "rel_error": abs(num - ref) / max(abs(ref), 1e-300),
                })
            if refinement > WEYL_REFINEMENT_BOUND:
                raise NumericalFailure(
                    f"Weyl convolution moves by {refinement:.3e} relative when its order "
                    f"is doubled (bound {WEYL_REFINEMENT_BOUND:.0e})"
                )
            out["points"] = rows
            out["max_rel_error"] = max(r["rel_error"] for r in rows)
            out.update(order=max(orders), refinement=refinement)
        elif args.experiment == "coherent":
            radii = [1.0, 2.0, 4.0]
            logs = []
            for r in radii:
                w = np.zeros(problem.n, dtype=complex)
                w[0] = r
                logs.append(float(np.log(oracle.numeric_coherent_norm(problem, w))))
            slope = float(np.polyfit(np.array(radii) ** 2, logs, 1)[0])
            # the oracle refused a pluriharmonic part above: the weight is Hermitian
            f = bergman.bergman_exponent(problem)
            w = np.zeros(problem.n, dtype=complex)
            w[0] = 1.0
            predicted = bergman.growth_exponent(f, problem.weight, w) / 2.0
            out.update(radii=radii, log_norms=logs, slope=slope,
                       predicted_slope=predicted if math.isfinite(predicted) else "inf")
        print(json_text(out))
        return EXIT_OK
    except InadmissibleProblem as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (ProblemFileError, OracleRefusal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bargtop",
        description="Classify Gaussian-symbol Toeplitz operators on Bargmann spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a problem file")
    p_classify.add_argument("file")
    p_classify.set_defaults(fn=_cmd_classify)

    p_scan = sub.add_parser("scan", help="sweep the model-family grid to CSV")
    p_scan.add_argument("--lambda-re", required=True, metavar="A:B:STEPS")
    p_scan.add_argument("--lambda-im", default="0", metavar="V[,V...]")
    p_scan.add_argument("--norm-a", required=True, metavar="A:B:STEPS")
    p_scan.add_argument("-o", "--output", required=True)
    p_scan.add_argument("--workers", type=int, default=1)
    p_scan.set_defaults(fn=_cmd_scan)

    p_verify = sub.add_parser("verify", help="run cross-validation suites")
    p_verify.add_argument("--suite", choices=sorted(verify.SUITES), default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--n", type=int, choices=(1, 2), default=1)
    p_verify.set_defaults(fn=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="run a brute-force experiment")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--experiment", required=True,
                          choices=("trend", "decay", "weyl", "coherent"))
    p_oracle.add_argument("-N", "--sizes", default="10,20,40")
    p_oracle.set_defaults(fn=_cmd_oracle)
    return parser


def _join_negative_values(argv):
    # argparse reads a value like "-1:0:3" as an option string; fold such
    # values into --flag=value form so negative grid bounds parse
    flags = {"--lambda-re", "--lambda-im", "--norm-a"}
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves it unchanged
    return make_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_join_negative_values(list(argv)))
    try:
        classification_tolerance()  # a bad TOEPLITZ_TOL fails here, not mid-run
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
