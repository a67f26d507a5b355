"""Seeded inputs and output checks for the three benchmark workloads.

Every workload is a list of identical *blocks*: each block holds the same
slots (dimension, input category, CLI subcommand) in a seeded order, and
only the numbers inside each slot are drawn from the seed.  The measured
loop always finishes the block it is in, so every run executes an exact
multiple of the block's mix.  That keeps percentiles on fixed ranks and
makes call counts repeat exactly across runs and seeds.

Inputs are built only through the package's public constructors
(``Weight``, ``ComplexQuadraticForm``, ``model.ModelInstance``) and are
written as YAML problem files.  Each operation carries its own check,
which uses only what the benchmark knows independently of the pipeline:
the admissibility the generator aimed for, the closed form of the radial
family (``model.classify_model``), and structural facts of the report.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from bargtop import model
from bargtop.forms import ComplexQuadraticForm, Weight

VERDICTS = ("inadmissible", "unbounded", "bounded_not_compact", "compact")
# the pipeline's confidence band (toeplitz.AGREEMENT_BAND), restated so the
# check does not read it from the code under test
BAND = 1e-8


@dataclass
class Op:
    """One CLI call: argv for ``bargtop.cli.main`` and how to check it."""

    argv: list
    kind: str              # classify | scan | oracle:<experiment>
    n: int
    category: str          # input category of the slot, e.g. general, radial
    problems: int = 1      # problems the call classifies or evaluates
    pluriharmonic: bool = False
    radial: bool = False
    expect_admissible: bool = True
    instance: model.ModelInstance | None = None
    artifact: str | None = None     # file the call writes (scan CSV)
    grid: tuple | None = None       # scan grid (res, ims, nas)
    info: dict = field(default_factory=dict)


class CheckFailure(Exception):
    """An output check failed; the message says which."""


# ---------------------------------------------------------------------------
# drawing problems

def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def _symmetric(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (b + b.T) / 2.0


def _realify(qxx, qxbx, qxbxb):
    """Real symmetric S with Re q(x) = t.S t, x = t[0::2] + i t[1::2]."""
    n = qxx.shape[0]
    c = np.zeros((n, 2 * n), dtype=complex)
    c[np.arange(n), 2 * np.arange(n)] = 1.0
    c[np.arange(n), 2 * np.arange(n) + 1] = 1j
    cb = np.conj(c)
    m = 0.5 * c.T @ qxx @ c + cb.T @ qxbx @ c + 0.5 * cb.T @ qxbxb @ cb
    m = m.real
    return (m + m.T) / 2.0


def _admissibility_limit(h, qxx, qxbx, qxbxb):
    """Largest s such that Re(s q) <= xbar.H x, or inf."""
    zero = np.zeros_like(h)
    sh = _realify(zero, h, zero)
    sq = _realify(qxx, qxbx, qxbxb)
    top = float(scipy.linalg.eigh(sq, sh, eigvals_only=True)[-1])
    return math.inf if top <= 0.0 else 1.0 / top


def _det_margin(h, qxbx):
    d = 2.0 * h - qxbx
    return abs(np.linalg.det(d)) / np.linalg.norm(d, 2) ** h.shape[0]


def _general(rng, n, edge=0, pluriharmonic=True, diagonal=False, levi_range=(0.2, 1.0)):
    """A weight with Levi form H (and pluriharmonic part P) and a random q
    scaled to a chosen share of the admissibility limit.

    ``edge`` = 0 draws the share in [0.2, 0.9]; edge = +1 / -1 draws it
    just inside / just outside the limit, at relative distance 1e-3..1e-2.
    Half of the interior draws are damped toward -H, which biases them to
    compact operators (raw draws are mostly unbounded).
    """
    while True:
        levi = np.exp(rng.uniform(*np.log(levi_range), size=n))
        if diagonal:
            h = np.diag(levi).astype(complex)
        else:
            u = _unitary(rng, n)
            h = u @ np.diag(levi) @ u.conj().T
            h = (h + h.conj().T) / 2.0
        p = (0.3 * levi.min() * _symmetric(rng, n) / math.sqrt(n)
             if pluriharmonic else np.zeros((n, n), dtype=complex))
        qxx = _symmetric(rng, n)
        qxbx = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        qxbxb = _symmetric(rng, n)
        if edge == 0 and rng.random() < 0.5:
            c = rng.uniform(0.1, 0.4)
            qxx, qxbx, qxbxb = c * qxx, c * qxbx - h, c * qxbxb
        limit = _admissibility_limit(h, qxx, qxbx, qxbxb)
        if not math.isfinite(limit):
            continue
        if edge == 0:
            s = limit * rng.uniform(0.2, 0.9)
        else:
            s = limit * (1.0 - edge * math.exp(rng.uniform(math.log(1e-3), math.log(1e-2))))
        qxx, qxbx, qxbxb = s * qxx, s * qxbx, s * qxbxb
        if _det_margin(h, qxbx) < 1e-6:
            continue  # the slot wants a clear call on the Hermitian criterion
        return Weight(h, p), ComplexQuadraticForm(qxx, qxbx, qxbxb)


def _radial(rng, n, near_boundary=False):
    """A member (lam, A) of the radial family; near_boundary puts ||A|| at
    relative distance 1e-4..1e-3 of the bounded/compact threshold."""
    while True:
        lam = complex(rng.uniform(-1.5, 0.2), rng.uniform(-1.0, 1.0))
        room = 0.25 - lam.real
        a = _symmetric(rng, n)
        a = a / np.linalg.svd(a, compute_uv=False)[0]
        if not near_boundary:
            inst = model.ModelInstance(n, lam, rng.uniform(0.0, 0.9) * room * a)
            return inst
        g2 = abs(1.0 / (1.0 - 2.0 * lam)) ** 2
        if g2 >= 1.0:
            continue
        edge = (1.0 - g2) / g2 / 4.0
        eps = math.exp(rng.uniform(math.log(1e-4), math.log(1e-3)))
        norm = edge * (1.0 + eps * rng.choice((-1.0, 1.0)))
        if norm >= 0.9 * room:
            continue
        return model.ModelInstance(n, lam, norm * a)


def _cm(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def _yaml_float(x):
    # repr round-trips exactly; YAML 1.1 also wants a '.' in the mantissa
    s = repr(float(x))
    if "e" in s and "." not in s:
        mant, exp = s.split("e")
        s = f"{mant}.0e{exp}"
    return s


def _yaml_matrix(mat):
    rows = (", ".join(f"[{_yaml_float(z.real)}, {_yaml_float(z.imag)}]" for z in row)
            for row in np.asarray(mat, dtype=complex))
    return "[" + ", ".join(f"[{r}]" for r in rows) + "]"


def _write_problem(path, weight, q):
    text = (
        f"n: {weight.n}\n"
        f"phi0:\n  hermitian: {_yaml_matrix(weight.h)}\n"
        f"  pluriharmonic: {_yaml_matrix(weight.p)}\n"
        f"q:\n  xx: {_yaml_matrix(q.qxx)}\n  xbarx: {_yaml_matrix(q.qxbx)}\n"
        f"  xbarxbar: {_yaml_matrix(q.qxbxb)}\n"
    )
    with open(path, "w") as fh:
        fh.write(text)


def _model_parts(inst):
    n = inst.n
    q = ComplexQuadraticForm(np.zeros((n, n)), inst.lam * np.eye(n), 2.0 * inst.a)
    return Weight.model(n), q


# ---------------------------------------------------------------------------
# workloads

#: classify_files block: (n, category) slots.  Per-call time steps 2-3x
#: between dimensions, and the shared CPU also runs at two speeds about 1.7x
#: apart, which shifts a varying part of every class down.  A percentile
#: stays inside the slow copy of its class as long as the cheaper calls plus
#: the fast part of the class stay below it, so the shares are chosen to make
#: that hold until about 3/4 of a run is fast: p50 sits in the n=2 ranks
#: (15%..60%, 78% of the way up when all calls run slow), p90 in the n=8
#: ranks (65%..100%, 71% of the way up).
CLASSIFY_BLOCK = (
    [(1, "general"), (1, "radial"), (2, "edge_out")]
    + [(2, "general")] * 6 + [(2, "radial"), (2, "edge_in"), (2, "near_boundary")]
    + [(4, "general")]
    + [(8, "general")] * 6 + [(8, "radial")]
)

#: oracle_evidence block: (n, category, experiment, sizes) slots.  n=2 runs
#: trend with N <= 20 and weyl only: n=2 trend at N=40 and n=2 coherent take
#: minutes per call.  weyl and coherent run on separable problems (diagonal
#: H and q = xbar.diag(lam) x), the family on which verify.suite_mehler and
#: verify.suite_slopes pin their bounds: on general draws the oracle's
#: default quadrature order and basis size miss those bounds (see README).
#: n=1 trend, weyl and decay take about the same time; p50 sits in their
#: ranks (5%..55%) and p90 in the n=1 coherent ranks (55%..95%), by the
#: same rule as the classify block.
ORACLE_BLOCK = (
    [(1, "separable", "trend", None)] * 2
    + [(1, "separable", "weyl", None)] * 6
    + [(1, "general", "decay", None)] * 6
    + [(1, "general", "trend", None)] * 8
    + [(1, "separable", "coherent", None)] * 16
    + [(2, "general", "trend", "10,20"), (2, "separable", "weyl", None)]
)

SCAN_REFERENCE = ((-2.0, 0.24, 101), (0.0, 0.5), (0.0, 0.2, 5))


def classify_files(seed, workdir, blocks):
    rng = np.random.default_rng([seed, 1])
    out = []
    for b in range(blocks):
        slots = [CLASSIFY_BLOCK[i] for i in rng.permutation(len(CLASSIFY_BLOCK))]
        block = []
        for k, (n, cat) in enumerate(slots):
            path = os.path.join(workdir, f"c{b:03d}_{k:02d}_n{n}_{cat}.yaml")
            op = Op(["classify", path], "classify", n, cat)
            if cat in ("radial", "near_boundary"):
                inst = _radial(rng, n, near_boundary=cat == "near_boundary")
                weight, q = _model_parts(inst)
                op.instance, op.radial = inst, True
            else:
                edge = {"general": 0, "edge_in": 1, "edge_out": -1}[cat]
                weight, q = _general(rng, n, edge=edge)
                op.pluriharmonic = True
                op.expect_admissible = edge >= 0
            _write_problem(path, weight, q)
            block.append(op)
        out.append(block)
    return out


def scan_grid(seed):
    """Seed 0 is the reference grid.  Other seeds move Re(lambda) down and
    ||A|| up by the same sub-step offset, which keeps Re(lambda) + ||A||, and
    so the set of admissible points, unchanged; Im(lambda) moves by its own
    offset."""
    (r0, r1, rn), ims, (a0, a1, an) = SCAN_REFERENCE
    if seed == 0:
        return (r0, r1, rn), ims, (a0, a1, an)
    rng = np.random.default_rng([seed, 2])
    step = min((r1 - r0) / (rn - 1), (a1 - a0) / (an - 1))
    d = float(rng.uniform(0.05, 0.95) * step)
    e = float(rng.uniform(0.05, 0.95) * (ims[1] - ims[0]))
    return (r0 - d, r1 - d, rn), tuple(v + e for v in ims), (a0 + d, a1 + d, an)


def _fmt_range(r):
    a, b, k = r
    return f"{a!r}:{b!r}:{k}"


def scan_reference(seed, workdir, blocks):
    res, ims, nas = scan_grid(seed)
    out = []
    for b in range(blocks):
        path = os.path.join(workdir, f"scan{b:03d}.csv")
        argv = ["scan", f"--lambda-re={_fmt_range(res)}",
                "--lambda-im", ",".join(repr(v) for v in ims),
                "--norm-a", _fmt_range(nas), "-o", path]
        op = Op(argv, "scan", 1, "radial_grid", problems=res[2] * len(ims) * nas[2],
                radial=True, artifact=path,
                grid=(np.linspace(*res), list(ims), np.linspace(*nas)))
        out.append([op])
    return out


def oracle_evidence(seed, workdir, blocks):
    rng = np.random.default_rng([seed, 3])
    out = []
    for b in range(blocks):
        slots = [ORACLE_BLOCK[i] for i in rng.permutation(len(ORACLE_BLOCK))]
        block = []
        for k, (n, cat, exp, sizes) in enumerate(slots):
            path = os.path.join(workdir, f"o{b:03d}_{k:02d}_n{n}_{exp}.yaml")
            if cat == "separable":
                h = rng.uniform(0.22, 0.28, size=n)
                lam = rng.uniform(-1.0, 0.15, size=n) + 1j * rng.uniform(-0.5, 0.5, size=n)
                z = np.zeros((n, n))
                weight = Weight(np.diag(h), z)
                q = ComplexQuadraticForm(z, np.diag(lam), z)
                info = {"h": h, "lam": lam}
            else:
                # Levi eigenvalues near 1/4 keep the coherent basis size, and
                # so the per-call time, nearly seed independent
                weight, q = _general(rng, n, pluriharmonic=False, diagonal=True,
                                     levi_range=(0.22, 0.28))
                info = {}
            _write_problem(path, weight, q)
            argv = ["oracle", path, "--experiment", exp] + (["-N", sizes] if sizes else [])
            # a separable n=1 problem is radial: invariant under x -> e^{it} x
            block.append(Op(argv, f"oracle:{exp}", n, cat, radial=cat == "separable" and n == 1,
                            info=info))
        out.append(block)
    return out


@dataclass(frozen=True)
class Workload:
    generate: object       # (seed, workdir, blocks) -> list of blocks of Op
    blocks: int            # blocks generated; a long run cycles through them
    warmup: tuple          # (kind, n, category) of the warm-up and set-up call
    setup_repeats: int     # fresh processes timed for setup_s


WORKLOADS = {
    "classify_files": Workload(classify_files, 32, ("classify", 2, "general"), 5),
    "scan_reference": Workload(scan_reference, 1, ("scan", 1, "radial_grid"), 3),
    "oracle_evidence": Workload(oracle_evidence, 8, ("oracle:trend", 1, "general"), 5),
}


def warmup_op(workload, blocks):
    """The first call of the first block in the workload's warm-up slot."""
    return next(op for op in blocks[0] if (op.kind, op.n, op.category) == workload.warmup)


# ---------------------------------------------------------------------------
# output checks: each returns the verdict labels it saw and raises
# CheckFailure on a wrong output

def _fail(msg):
    raise CheckFailure(msg)


def _finite(value, where):
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        _fail(f"{where}: not a finite number: {value!r}")
    return float(value)


def _confident(entry):
    return abs(entry["margin"]) > BAND * max(entry["scale"], 1.0)


def _complex_matrix(value, shape, where):
    """Parse an [re, im] matrix and check that it round-trips."""
    if not isinstance(value, list) or len(value) != shape[0]:
        _fail(f"{where}: expected {shape[0]} rows")
    out = np.empty(shape, dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != shape[1]:
            _fail(f"{where}[{i}]: expected {shape[1]} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                _fail(f"{where}[{i}][{j}]: not an [re, im] pair")
            out[i, j] = complex(_finite(entry[0], where), _finite(entry[1], where))
    if _cm(out) != value:
        _fail(f"{where}: [re, im] entries do not round-trip")
    return out


def _json(text, where):
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"{where}: stdout is not JSON ({exc})")
    if not isinstance(value, dict) or json.loads(json.dumps(value)) != value:
        _fail(f"{where}: JSON object does not round-trip")
    return value


def check_classify(op, rc, out, artifact):
    want_rc = 0 if op.expect_admissible else 2
    if rc != want_rc:
        _fail(f"exit code {rc}, expected {want_rc}")
    report = _json(out, "report")
    verdict = report.get("verdict")
    if verdict not in VERDICTS:
        _fail(f"unknown verdict {verdict!r}")
    if not op.expect_admissible:
        failures = report.get("failures")
        if verdict != "inadmissible" or not failures or not all(isinstance(f, str) for f in failures):
            _fail(f"inadmissible input reported as {verdict!r} with failures {failures!r}")
        return ["inadmissible"]
    if verdict == "inadmissible":
        _fail("admissible input reported inadmissible")
    margins = report.get("margins")
    want = {"certificate", "weyl", "bergman"} | ({"model"} if op.radial else set())
    if not isinstance(margins, dict) or set(margins) != want:
        _fail(f"margins {sorted(margins or ())}, expected {sorted(want)}")
    for name, entry in margins.items():
        if entry.get("verdict") not in VERDICTS[1:]:
            _fail(f"margins.{name}: bad verdict {entry.get('verdict')!r}")
        _finite(entry.get("margin"), f"margins.{name}.margin")
        _finite(entry.get("scale"), f"margins.{name}.scale")
    cert = margins["certificate"]
    if verdict != cert["verdict"]:
        _fail(f"verdict {verdict} differs from its certificate entry {cert['verdict']}")
    if report.get("boundary") is not (not _confident(cert)):
        _fail("boundary flag disagrees with the certificate margin")
    sure = {e["verdict"] for e in margins.values()
            if _confident(e) and e["verdict"] != "bounded_not_compact"}
    if len(sure) > 1:
        _fail(f"confident witnesses disagree: {sorted(sure)}")
    n = op.n
    kappa = _complex_matrix(report.get("kappa"), (2 * n, 2 * n), "kappa")
    for key, blocks in (("weyl_exponent", ("xx", "xbarx", "xbarxbar")),
                        ("bergman_exponent", ("xx", "xz", "zz"))):
        part = report.get(key)
        if not isinstance(part, dict) or set(part) != set(blocks):
            _fail(f"{key}: expected blocks {blocks}")
        for b in blocks:
            _complex_matrix(part[b], (n, n), f"{key}.{b}")
    if _finite(report.get("weyl_prefactor_modulus"), "weyl_prefactor_modulus") <= 0.0:
        _fail("weyl_prefactor_modulus is not positive")
    _finite(report.get("timing_seconds"), "timing_seconds")
    j = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    res = np.max(np.abs(kappa.T @ j @ kappa - j)) / max(1.0, np.max(np.abs(kappa)) ** 2)
    if res > 1e-8:
        _fail(f"kappa is not symplectic (residual {res:.2e})")
    if op.instance is not None:
        closed = model.classify_model(op.instance)
        if (closed.witnesses["model"].confident and _confident(cert)
                and closed.verdict.value != verdict):
            _fail(f"verdict {verdict}, closed form says {closed.verdict.value}")
        k_closed = model.closed_form_map(op.instance).k
        err = np.max(np.abs(kappa - k_closed)) / max(1.0, np.max(np.abs(k_closed)))
        if err > 1e-9:
            _fail(f"kappa differs from the closed-form map by {err:.2e}")
    return ["boundary" if report["boundary"] else verdict]


def check_scan(op, rc, out, artifact):
    res, ims, nas = op.grid
    rows_expected = len(res) * len(ims) * len(nas)
    if rc != 0:
        _fail(f"exit code {rc}, expected 0")
    if out != f"wrote {rows_expected} rows to {op.artifact}\n":
        _fail(f"unexpected stdout {out[:200]!r}")
    rows = list(csv.reader(io.StringIO(artifact)))
    if rows[:1] != [["re_lambda", "im_lambda", "normA", "verdict", "margin"]]:
        _fail("bad CSV header")
    rows = rows[1:]
    if len(rows) != rows_expected:
        _fail(f"{len(rows)} CSV rows, expected {rows_expected}")
    labels = []
    k = 0
    for re in res:
        for im in ims:
            for na in nas:
                row = rows[k]
                k += 1
                if row[:3] != [repr(float(re)), repr(float(im)), repr(float(na))]:
                    _fail(f"row {k}: grid point {row[:3]}, expected {(re, im, na)}")
                verdict, margin = row[3], float(row[4])
                inst = model.ModelInstance(1, complex(re, im), np.array([[na]]))
                if not inst.is_admissible:
                    if verdict != "inadmissible" or not math.isnan(margin):
                        _fail(f"row {k}: inadmissible point reported {verdict} {margin}")
                    labels.append("inadmissible")
                    continue
                if verdict not in VERDICTS[1:] or not math.isfinite(margin):
                    _fail(f"row {k}: bad verdict {verdict!r} or margin {row[4]!r}")
                closed = model.classify_model(inst)
                # the CSV drops the certificate's scale; |margin| > 1e-6 is
                # well outside its confidence band on this grid
                if (closed.witnesses["model"].confident and abs(margin) > 1e-6
                        and closed.verdict.value != verdict):
                    _fail(f"row {k}: {verdict}, closed form says {closed.verdict.value}")
                labels.append(verdict)
    return labels


def _radial_section_norms(op, sizes):
    """Exact section norms of the radial n=1 operator: the Galerkin matrix
    is diagonal with entries of modulus |2h / (2h - lam)|^(k+1)."""
    h, lam = op.info["h"][0], op.info["lam"][0]
    r = abs(2.0 * h / (2.0 * h - lam))
    return [max(r, r ** s) for s in sizes]


def check_oracle(op, rc, out, artifact):
    if rc != 0:
        _fail(f"exit code {rc}, expected 0")
    result = _json(out, "oracle output")
    exp = op.kind.split(":")[1]
    if result.get("experiment") != exp:
        _fail(f"experiment {result.get('experiment')!r}, expected {exp}")
    if exp == "trend":
        sizes = sorted(int(s) for s in (op.argv[-1] if "-N" in op.argv else "10,20,40").split(","))
        norms = result.get("norms")
        if result.get("sizes") != sizes or not isinstance(norms, list) or len(norms) != len(sizes):
            _fail("trend: sizes or norms missing")
        norms = [_finite(v, "trend norm") for v in norms]
        if any(b < a * (1.0 - 1e-12) for a, b in zip(norms, norms[1:])):
            _fail(f"trend: section norms decrease {norms}")
        if op.radial:
            want = _radial_section_norms(op, sizes)
            err = max(abs(a - b) / b for a, b in zip(norms, want))
            if err > 1e-9:
                _fail(f"trend: radial section norms off by {err:.2e}")
    elif exp == "decay":
        sv = [_finite(v, "singular value") for v in result.get("singular_values") or []]
        ratio = _finite(result.get("ratio"), "decay ratio")
        if not sv or any(b > a for a, b in zip(sv, sv[1:])) or sv[-1] < 0.0:
            _fail("decay: singular values not sorted and nonnegative")
        if not 0.0 < ratio <= 1.0 + 1e-9:
            _fail(f"decay: ratio {ratio} outside (0, 1]")
    elif exp == "weyl":
        points = result.get("points") or []
        worst = 0.0
        for row in points:
            num = _complex_matrix([[row["numeric"]]], (1, 1), "numeric")[0, 0]
            ref = _complex_matrix([[row["closed_form"]]], (1, 1), "closed_form")[0, 0]
            worst = max(worst, abs(num - ref) / max(abs(ref), 1e-300))
        reported = _finite(result.get("max_rel_error"), "max_rel_error")
        if len(points) != 3 or not worst <= 1e-6 or not reported <= 1e-6:
            _fail(f"weyl: convolution vs closed form {max(worst, reported):.2e} > 1e-6")
    elif exp == "coherent":
        slope = _finite(result.get("slope"), "slope")
        pred = result.get("predicted_slope")
        if not isinstance(pred, float) or not abs(slope - pred) <= 1e-2 * abs(pred):
            _fail(f"coherent: slope {slope} vs predicted {pred}, tolerance 1e-2 relative")
    return []


CHECKS = {"classify": check_classify, "scan": check_scan, "oracle": check_oracle}


def check(op, rc, out, artifact):
    return CHECKS[op.kind.split(":")[0]](op, rc, out, artifact)


# ---------------------------------------------------------------------------
# self-check: a corrupted copy of a passing output must fail its check

_FLIP = {"compact": "unbounded", "unbounded": "compact",
         "bounded_not_compact": "compact", "inadmissible": "compact"}


def corrupt(op, out, artifact):
    """A copy of (stdout, artifact) with the verdict flipped, or for the
    oracle the key number moved; a correct check must reject it."""
    if op.kind == "classify":
        report = json.loads(out)
        report["verdict"] = _FLIP[report["verdict"]]
        if op.radial:
            # flip the certificate entry too, so only the closed form can tell
            report["margins"]["certificate"]["verdict"] = report["verdict"]
        return json.dumps(report), artifact
    if op.kind == "scan":
        lines = artifact.splitlines(keepends=True)
        for i, line in enumerate(lines[1:], start=1):
            cells = line.rstrip("\r\n").split(",")
            if cells[3] in ("compact", "unbounded") and abs(float(cells[4])) > 1e-3:
                cells[3] = _FLIP[cells[3]]
                lines[i] = ",".join(cells) + "\r\n"
                return out, "".join(lines)
        raise AssertionError("scan output has no confident row to flip")
    result = json.loads(out)
    exp = result["experiment"]
    if exp == "trend":
        result["norms"] = [v * (1.0 + 1e-6) for v in result["norms"]]
        if not op.radial:
            result["norms"][-1] = 0.5 * result["norms"][0]
    elif exp == "decay":
        result["ratio"] = 1.5
    elif exp == "weyl":
        for row in result["points"]:
            row["numeric"] = [v * (1.0 + 1e-3) for v in row["numeric"]]
    elif exp == "coherent":
        result["slope"] += 0.05 * abs(result["predicted_slope"]) + 1e-3
    return json.dumps(result), artifact
