#!/usr/bin/env python3
"""Benchmark of the bargtop command line, one workload per run.

    python3 perfbench/run.py --workload classify_files --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, nothing is installed.  Each operation is one call of
``bargtop.cli.main`` in this process with stdout captured, in a closed
loop (one client; the next call starts when the previous returns), and
every output is checked.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the same calls untraced and then traced and reports
the per-layer metrics.  The last line of stdout is the JSON result;
``perfbench/out/`` keeps the full result (with provenance) and, for
traced runs, the spans.  See perfbench/README.md for the metric map.
"""

import os

# one BLAS thread, set before NumPy loads: the bundled OpenBLAS would
# otherwise spread small solves over every core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CHILD = r"""
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import bargtop.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = bargtop.cli.main(sys.argv[2:])
print(json.dumps({"seconds": time.perf_counter() - t0, "rc": rc}))
"""

END_TO_END = {
    "op_p50_ms": "ms", "op_p90_ms": "ms", "problems_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}

SELF_MS = (
    "forms.check_admissible", "forms.quadratic_matrix", "forms.real_part_matrix",
    "forms.classify_real_form", "toeplitz.reduce_and_factor", "toeplitz.classify_operator",
    "symplectic.canonical_from_phase", "symplectic.involution_for_weight",
    "symplectic.positivity_certificate", "weyl.weyl_symbol", "weyl.symbol_subverdict",
    "bergman.bergman_exponent", "bergman.growth_subverdict", "model.detect_model",
    "model.classify_model", "cli.load_problem", "cli.build_report", "cli.main",
    "oracle.truncated_matrix", "oracle.norm_trend", "oracle.numeric_weyl",
    "oracle.numeric_coherent_norm",
)
CALLS = (
    "forms.check_admissible", "forms.quadratic_matrix", "toeplitz.ToeplitzProblem",
    "symplectic.canonical_from_phase", "weyl.weyl_symbol", "bergman.critical_system",
)


def fail_setup(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


# ---------------------------------------------------------------------------
# provenance

def provenance(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "bargtop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# running operations

class Runner:
    """Runs operations through ``bargtop.cli.main`` and checks them."""

    def __init__(self, cli, workloads):
        self.cli = cli
        self.wl = workloads
        self.tracer = None
        self.failures = Counter()
        self.selfchecks = 0

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc, error = None, traceback.format_exc(limit=3)
        return time.perf_counter() - t0, rc, out.getvalue(), error

    def run(self, op, op_id, block, selfcheck=False):
        if self.tracer is not None:
            self.tracer.op_id, self.tracer.active = op_id, True
        try:
            seconds, rc, out, error = self.call(op)
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        labels, reason = [], None
        artifact = None
        if op.artifact is not None and os.path.exists(op.artifact):
            with open(op.artifact, newline="") as fh:
                artifact = fh.read()
            os.remove(op.artifact)
        if error is not None:
            reason = "traceback: " + error.strip().splitlines()[-1]
        elif rc not in (0, 1, 2, 3):
            reason = f"undocumented exit code {rc!r}"
        else:
            try:
                labels = self.wl.check(op, rc, out, artifact)
            except self.wl.CheckFailure as exc:
                reason = f"check: {exc}"
        if reason is not None:
            self.failures[f"{op.kind} n={op.n} {op.category}: {reason}"] += 1
        elif selfcheck:
            self.selfcheck(op, rc, out, artifact)
        return {"op": op, "block": block, "seconds": seconds, "ok": reason is None, "labels": labels,
                "stdout_bytes": len(out.encode())}

    def selfcheck(self, op, rc, out, artifact):
        bad_out, bad_artifact = self.wl.corrupt(op, out, artifact)
        try:
            self.wl.check(op, rc, bad_out, bad_artifact)
        except self.wl.CheckFailure:
            self.selfchecks += 1
            return
        raise RuntimeError(f"output check accepted a corrupted {op.kind} output ({op.argv})")

    def loop(self, blocks, seconds, tracer=None):
        """Closed loop over whole blocks until ``seconds`` have passed.

        With a tracer every call runs twice, untraced and traced, in
        alternating order, so both halves see the same calls and the same
        machine state.  Returns (untraced, traced) records.
        """
        plain, traced = [], []
        start = time.perf_counter()
        b = 0
        while True:
            for op in blocks[b % len(blocks)]:
                first = b == 0
                if tracer is None:
                    plain.append(self.run(op, len(plain), b, selfcheck=first))
                    continue
                pair = [(plain, None), (traced, tracer)]
                for out, t in pair if len(plain) % 2 == 0 else reversed(pair):
                    self.tracer = t
                    out.append(self.run(op, len(out), b, selfcheck=first and t is None))
                self.tracer = None
            b += 1
            if time.perf_counter() - start >= seconds:
                return plain, traced


def measure_setup(op, workdir, repeats):
    """Fresh-process set-up: import bargtop and finish one warm-up call."""
    argv = list(op.argv)
    if op.artifact is not None:
        argv[argv.index(op.artifact)] = os.path.join(workdir, "setup.csv")
    want = 0 if op.expect_admissible else 2
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)] + argv,
                              capture_output=True, text=True, timeout=170, cwd=ROOT)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {}
        if proc.returncode != 0 or result.get("rc") != want:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        samples.append(result["seconds"])
    return samples


# ---------------------------------------------------------------------------
# metrics

def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def input_mix(records, oracle_labels):
    """Shares of the executed calls by input property and by verdict."""
    total = len(records)
    ops = [r["op"] for r in records]
    share = lambda c: {k: round(v / total, 4) for k, v in sorted(c.items())}  # noqa: E731
    verdicts = Counter()
    for r in records:
        labels = r["labels"] or oracle_labels.get(r["op"].argv[1], [])
        for label in labels:
            verdicts[label] += 1 / len(labels)
    return {
        "calls": total,
        "n": share(Counter(f"n={op.n}" for op in ops)),
        "category": share(Counter(op.category for op in ops)),
        "call": share(Counter(op.kind for op in ops)),
        "pluriharmonic": round(sum(op.pluriharmonic for op in ops) / total, 4),
        "radial_family": round(sum(op.radial for op in ops) / total, 4),
        "verdicts": share(verdicts),
    }


def oracle_verdicts(records, cli):
    """Verdicts of the oracle problems, for the input-mix report only."""
    from bargtop.toeplitz import classify_operator

    out = {}
    for r in records:
        path = r["op"].argv[1]
        if r["op"].kind.startswith("oracle") and path not in out:
            v = classify_operator(cli.load_problem(path))
            out[path] = ["boundary" if v.boundary else v.verdict.value]
    return out


def end_to_end(records, setup):
    times = sorted(r["seconds"] for r in records)
    # median over blocks, like the percentiles: every block holds the same
    # mix, and a median reads the CPU speed most of the run had, where a
    # mean over the run moves with the share of time spent at each speed
    blocks = {}
    for r in records:
        problems, seconds = blocks.get(r["block"], (0, 0.0))
        blocks[r["block"]] = (problems + r["op"].problems, seconds + r["seconds"])
    return {
        "op_p50_ms": quantile(times, 50) * 1e3,
        "op_p90_ms": quantile(times, 90) * 1e3,
        "problems_per_s": statistics.median(p / s for p, s in blocks.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced):
    from tracing import LAYERS

    ops = len(traced)
    totals = tracer.totals()
    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = totals[name][2] * 1e3 / ops if name in totals else 0.0
    for name in CALLS:
        metrics[f"{name}.calls_per_op"] = totals[name][0] / ops if name in totals else 0.0
    metrics["forms.quadratic_matrix.evals_per_op"] = \
        tracer.counts["forms.quadratic_matrix.evals"] / ops
    metrics["cli.report_bytes"] = sum(r["stdout_bytes"] for r in traced) / ops
    metrics["oracle.quadrature_nodes_per_op"] = tracer.counts["oracle.nodes"] / ops
    metrics["oracle.computed_bytes_per_op"] = tracer.counts["oracle.bytes"] / ops
    for layer in LAYERS:
        metrics[f"{layer}.raised"] = float(tracer.raised[layer])
    metrics["trace.overhead_ratio"] = (sum(r["seconds"] for r in traced)
                                       / sum(r["seconds"] for r in untraced))
    return metrics


PER_LAYER_UNITS = {"self_ms": "ms", "calls_per_op": "count", "evals_per_op": "count",
                   "report_bytes": "bytes", "quadrature_nodes_per_op": "count",
                   "computed_bytes_per_op": "bytes", "raised": "count",
                   "overhead_ratio": "ratio"}


# ---------------------------------------------------------------------------

def main():
    args = parse_args()
    if not (SRC / "bargtop" / "cli.py").is_file():
        fail_setup(f"no package source at {SRC / 'bargtop'}; run from a bargtop checkout")
    if args.seconds <= 0:
        fail_setup("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    from bargtop import cli
    if args.workload not in workloads.WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return run(args, workloads, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, cli, workdir):
    prov = provenance(args)
    workload = workloads.WORKLOADS[args.workload]
    blocks = workload.generate(args.seed, workdir, workload.blocks)
    first = workloads.warmup_op(workload, blocks)
    runner = Runner(cli, workloads)
    runner.call(first)  # warm-up, untimed
    setup = [] if args.trace else measure_setup(first, workdir, workload.setup_repeats)

    result = {"provenance": prov, "setup_samples_s": setup}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            records, traced = runner.loop(blocks, args.seconds, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, records)
        units = {k: PER_LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["trace_missing"] = tracer.missing
        records = records + traced
    else:
        records, _ = runner.loop(blocks, args.seconds)
        metrics = end_to_end(records, setup)
        units = END_TO_END

    result["calls"] = [[r["op"].kind, r["op"].n, r["op"].category, r["seconds"]] for r in records]
    failed = sum(not r["ok"] for r in records)
    attempted = len(records)
    oracle_labels = oracle_verdicts(records, cli) if args.workload == "oracle_evidence" else {}
    mix = input_mix(records, oracle_labels)
    result.update(input_mix=mix, failures=dict(runner.failures), selfchecks=runner.selfchecks)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={prov['git_commit'][:12]} src={prov['src_sha256'][:12]}")
    print("environment: " + ", ".join(f"{k}={prov[k]}" for k in
                                      ("nproc", "cpus_usable", "python", "numpy", "scipy",
                                       "blas", "blas_threads")))
    print("input mix: " + json.dumps(mix, sort_keys=True))
    print(f"calls: {attempted} attempted, {failed} failed, failed_ratio {failed / attempted:.4f}; "
          f"{runner.selfchecks} corrupted outputs rejected by the checks")
    for reason, count in sorted(runner.failures.items()):
        print(f"  failure x{count}: {reason}")
    if not args.trace:
        print(f"samples: {len(records)} calls for op_p50_ms and op_p90_ms, "
              f"{len({r['block'] for r in records})} blocks for problems_per_s, "
              f"{len(setup)} fresh processes for setup_s")
    else:
        print(f"traced: {len(traced)} calls, each also run untraced; "
              f"missing hooks: {tracer.missing or 'none'}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")

    payload = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    result.update(payload)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
