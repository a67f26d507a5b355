"""The import graph of a fresh process.

The package never imports SciPy.  The process pool serves only a
``scan`` with at least two usable CPUs and a grid large enough to give
each worker ``cli._ROWS_PER_WORKER`` rows, and PyYAML only problem files
that are not in canonical form; ``classify`` of a canonical file, a serial
``scan``, ``verify`` and every oracle experiment load none of them.  Each
test starts its own interpreter, since the test process itself has long
since imported all three.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bargtop import cli

SRC = Path(__file__).parents[1] / "src"
DATA = Path(__file__).parent / "data"
LAZY = ("scipy", "concurrent.futures.process", "yaml")

# imports the package's oracle re-exports, runs main(argv) and reports, as
# its last stdout line, which LAZY modules it loaded
CHILD = """
import json, sys
from bargtop import coherent_norms, truncated_matrix, weyl_convolutions
from bargtop.cli import main
rc = main(sys.argv[2:])
print(json.dumps({"rc": rc, "loaded": [m for m in json.loads(sys.argv[1]) if m in sys.modules]}))
"""


def fresh_python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def run_main(argv, cwd=None):
    proc = fresh_python("-c", CHILD, json.dumps(LAZY), *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["classify", str(DATA / "classify_n2.yaml")],
    ["scan", "--lambda-re=-1:0:2", "--norm-a", "0:0.2:2", "-o", "scan.csv"],
], ids=["classify", "scan"])
def test_classify_and_scan_leave_scipy_and_the_pool_unloaded(tmp_path, argv):
    result = run_main(argv, cwd=tmp_path)
    assert result == {"rc": 0, "loaded": []}


@pytest.mark.parametrize("experiment", ["trend", "decay", "weyl", "coherent"])
def test_oracle_leaves_scipy_unloaded(tmp_path, experiment):
    # Galerkin sections are moment recurrences and the Weyl convolution and
    # coherent norms completed squares, all on NumPy's inverse and
    # eigenvalues: no nodes, no sqrtm, no gammaln
    path = tmp_path / "p.yaml"
    path.write_text("n: 1\nphi0:\n  hermitian: [[[0.25, 0.0]]]\nq:\n"
                    "  xx: [[[0.05, 0.1]]]\n  xbarx: [[[-0.3, 0.4]]]\n  xbarxbar: [[[0.02, -0.1]]]\n")
    result = run_main(["oracle", str(path), "--experiment", experiment])
    assert result == {"rc": 0, "loaded": []}


def test_verify_leaves_scipy_unloaded():
    # the random draws take their generalized eigenvalue from a Cholesky
    # factor and NumPy's eigvalsh
    assert run_main(["verify", "--suite", "mehler"]) == {"rc": 0, "loaded": []}


# runs main(argv), pinned to one CPU first when asked, and reports whether
# it loaded the pool and how many child processes it left
SCAN_CHILD = """
import json, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from bargtop.cli import main
rc = main(sys.argv[2:])
mp = sys.modules.get("multiprocessing")
print(json.dumps({"rc": rc, "pool": "concurrent.futures.process" in sys.modules,
                  "children": len(mp.active_children()) if mp else 0}))
"""

REFERENCE_GRID = ["scan", "--lambda-re=-2:0.24:101", "--lambda-im", "0,0.5",
                  "--norm-a", "0:0.2:5", "-o", "scan.csv"]


def run_reference_scan(affinity, cwd):
    proc = fresh_python("-c", SCAN_CHILD, affinity, *REFERENCE_GRID, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    assert (cwd / "scan.csv").read_bytes() == (DATA / "scan_reference.csv").read_bytes()
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_scan_pinned_to_one_cpu_runs_here(tmp_path):
    # the affinity mask, as taskset -c 0 sets it, is how a user limits the pool
    assert run_reference_scan("pinned", tmp_path) == {"rc": 0, "pool": False, "children": 0}


@pytest.mark.skipif(cli._usable_cpus() < 2, reason="one usable CPU: the scan runs here")
@pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                    reason="the scan pools only where fork is the default start method")
def test_scan_spreads_the_reference_grid_over_the_pool(tmp_path):
    assert run_reference_scan("default", tmp_path) == {"rc": 0, "pool": True, "children": 0}


def test_block_style_file_loads_yaml(tmp_path):
    # a Levi form written as block sequences: PyYAML reads it
    path = tmp_path / "p.yaml"
    path.write_text(
        "n: 2\n"
        "phi0:\n"
        "  hermitian:\n"
        "  - - [0.25, 0.0]\n"
        "    - [0.0, 0.0]\n"
        "  - - [0.0, 0.0]\n"
        "    - [0.25, 0.0]\n"
    )
    result = run_main(["classify", str(path)])
    assert result == {"rc": 0, "loaded": ["yaml"]}


def test_verify_runs_from_module_entry_point():
    proc = fresh_python("-m", "bargtop", "verify", "--suite", "mehler")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("mehler: pass")


def test_package_import_leaves_the_file_format_unloaded():
    # bargtop.io compiles the canonical reader's regex, about 8 ms, at import
    proc = fresh_python("-c", "import sys, bargtop; print('bargtop.io' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
