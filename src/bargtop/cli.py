"""Command line interface.

Subcommands: classify a problem file, scan the model-family parameter
grid to CSV, run the cross-validation suites, or run oracle experiments.

Exit codes: 0 ok, 1 verify failure, 2 inadmissible input, 3 numerical
failure or verdict disagreement, 141 (128 + SIGPIPE, what a shell reports
for a program that SIGPIPE ended) when the reader of stdout closed it
early, as ``bargtop classify file | head`` does; that case prints nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import sys
import time

import numpy as np

from .errors import InadmissibleProblem, NumericalFailure, OracleRefusal, ProblemFileError
from .forms import ComplexQuadraticForm, _model_weight, _record, classification_tolerance
from .io import json_text, load_problem
from .toeplitz import ToeplitzProblem, Verdict, VerdictClass, classify_operator
from . import oracle, verify

EXIT_OK = 0
EXIT_VERIFY_FAILURE = 1
EXIT_INADMISSIBLE = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141


# ---------------------------------------------------------------------------
# classify

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
    g, f = verdict.symbol.g, verdict.bergman_form
    report.update(
        kappa=verdict.kappa.k,
        weyl_exponent={"xx": g.qxx, "xbarx": g.qxbx, "xbarxbar": g.qxbxb},
        weyl_prefactor_modulus=verdict.symbol.prefactor_modulus,
        bergman_exponent={"xx": f.fxx, "xz": f.fxz, "zz": f.fzz},
    )
    return report


def _cmd_classify(args) -> int:
    problem = load_problem(args.file)
    start = time.perf_counter()
    verdict = classify_operator(problem)
    print(json_text(build_report(verdict, time.perf_counter() - start)))
    if verdict.verdict is VerdictClass.INADMISSIBLE:
        for line in verdict.admissibility.failures:
            print(f"inadmissible: {line}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan

#: largest grid a scan runs: its point and row lists, with the pool's
#: chunks and futures, hold under 300 bytes per row (tracemalloc, CPython
#: 3.11, 6e4 rows: 291 pooled, 267 serial), so 256 MiB is about 9e5 rows
_SCAN_MAX_ROWS = (256 << 20) // 300

#: rows each worker process must take to repay its start-up, so a grid of
#: fewer than twice this many runs serially: on a 2-CPU box a 2-worker pool
#: lost to the serial scan at 150 rows and broke even or won from 200
_ROWS_PER_WORKER = 100


def _grid_value(text: str, what: str, scale: float = 1.0) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what}: values must be finite, got {text}")
    if not math.isfinite(scale * value):
        raise ValueError(f"{what}: {scale:g} times each value must be finite, got {text}")
    return value


def _parse_range(text: str, what: str, scale: float = 1.0) -> tuple:
    """(a, b, steps) of an a:b:steps range, checked for np.linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what}: expected a:b:steps")
    a, b = (_grid_value(v, what, scale) for v in parts[:2])
    steps = int(parts[2])
    if steps < 1 or (steps == 1 and a != b) or (steps > 1 and b <= a):
        raise ValueError(f"{what}: invalid range {text}")
    if not math.isfinite(b - a):  # np.linspace steps by (b - a) / (steps - 1)
        raise ValueError(f"{what}: b - a must be finite, got {text}")
    return a, b, steps


def _parse_values(text: str, what: str) -> list:
    vals = [_grid_value(v, what) for v in text.split(",") if v != ""]
    if not vals:
        raise ValueError(f"{what}: empty list")
    if len(set(vals)) != len(vals):
        raise ValueError(f"{what}: duplicate values")
    return vals


def _scan_point(point):
    re_lam, im_lam, norm_a = (float(v) for v in point)
    # the model problem is its own normal form, q' = (0, lam, 2 ||A||) on
    # |x|^2/4, built from 1 x 1 blocks: _grid_value checked every value,
    # 2 ||A|| included, so the form's own checks would find nothing
    q = _record(ComplexQuadraticForm, qxx=np.zeros((1, 1), dtype=complex),
                qxbx=complex(re_lam, im_lam) * np.eye(1),
                qxbxb=np.array([[complex(2.0 * norm_a)]]))
    # the pipeline's check keeps a tolerance band that the closed-form
    # condition Re lam + ||A|| < 1/4 does not, so it decides admissibility
    verdict = classify_operator(ToeplitzProblem(_model_weight(1), q))
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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_pool(workers: int, points: list):
    """(pool, iterator over the rows of `points`) on `workers` forked
    processes, or None where fork is not the platform's default start
    method or the pool cannot start (no fork, no semaphores)."""
    try:
        # imported here: a serial scan never loads multiprocessing
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        if multiprocessing.get_all_start_methods()[0] != "fork":
            return None
        before = set(multiprocessing.active_children())
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    except (OSError, NotImplementedError, ImportError):
        return None
    try:
        # the workers fork here, at the first chunk
        return pool, pool.map(_scan_point, points, chunksize=32)
    except (OSError, NotImplementedError, ImportError):
        # a worker forked before a later fork failed has no manager
        # thread to stop it
        for proc in set(multiprocessing.active_children()) - before:
            proc.terminate()
            proc.join()
        pool.shutdown(cancel_futures=True)
        return None


def _scan_rows(points: list) -> list:
    """The rows of `points`, in order: on one process per usable CPU when
    each gets at least _ROWS_PER_WORKER rows and the pool starts, else in
    this process."""
    workers = min(_usable_cpus(), len(points) // _ROWS_PER_WORKER)
    started = _start_pool(workers, points) if workers > 1 else None
    if started is None:
        return [_scan_point(p) for p in points]
    from concurrent.futures.process import BrokenProcessPool

    pool, rows = started
    try:
        return list(rows)
    except BrokenProcessPool as exc:
        raise NumericalFailure(f"a scan worker process died: {exc}") from None
    finally:
        # after a failed row, the chunks no worker has taken yet are dropped
        pool.shutdown(cancel_futures=True)


def _cmd_scan(args) -> int:
    try:
        re_range = _parse_range(args.lambda_re, "--lambda-re")
        ims = _parse_values(args.lambda_im, "--lambda-im")
        # the model's symbol carries 2 ||A||
        na_range = _parse_range(args.norm_a, "--norm-a", scale=2.0)
        size = re_range[2] * len(ims) * na_range[2]
        if size > _SCAN_MAX_ROWS:
            raise ValueError(f"the grid has {size} rows, above the limit of {_SCAN_MAX_ROWS}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    res, nas = np.linspace(*re_range), np.linspace(*na_range)
    points = [(re, im, na) for re in res for im in ims for na in nas]
    # open the output before the grid runs; a failed grid leaves no file
    try:
        fh = open(args.output, "w", newline="")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    written = False
    try:
        rows = _scan_rows(points)
        writer = csv.writer(fh)
        writer.writerow(["re_lambda", "im_lambda", "normA", "verdict", "margin"])
        for re_lam, im_lam, norm_a, verdict, margin in rows:
            writer.writerow([repr(re_lam), repr(im_lam), repr(norm_a), verdict, repr(margin)])
        written = True
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
    problem = load_problem(args.file)
    problem.require_admissible()
    if args.experiment == "trend":
        norms = oracle.norm_trend(problem, sizes)
        out = {"experiment": "trend", "sizes": sorted(sizes), "norms": norms,
               "plateau": oracle.is_plateau(norms)}
    elif args.experiment == "decay":
        est = oracle.singular_decay(problem, max(sizes))
        out = {"experiment": "decay", "size": max(sizes), "ratio": est.ratio,
               "singular_values": [float(s) for s in est.singular_values[:12]]}
    elif args.experiment == "weyl":
        out = verify.weyl_evidence(problem)
    else:
        out = verify.coherent_evidence(problem)
    print(json_text(out))
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves it unchanged
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
    p_scan.set_defaults(fn=_cmd_scan)

    p_verify = sub.add_parser("verify", help="run cross-validation suites")
    p_verify.add_argument("--suite", choices=sorted(verify.SUITES), default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--n", type=int, choices=range(1, 9), default=1)
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
    for tok in argv:
        if out and out[-1] in flags and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_join_negative_values(list(argv)))
    try:
        classification_tolerance()  # a bad TOEPLITZ_TOL fails here, not mid-run
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    # each command's refusals and failures: one stderr line and an exit code
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at the null device, so that the flush at exit drops
        # what is left unwritten instead of failing again
        with contextlib.suppress(OSError):  # no file behind stdout, nothing left
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ProblemFileError, OracleRefusal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except InadmissibleProblem as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
