"""The import graph of a fresh process.

SciPy serves only the quadrature oracle and one verify suite, and the
process pool only ``scan --workers N`` with N > 1; ``classify`` and a
serial ``scan`` load neither. Each test starts its own interpreter, since
the test process itself has long since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
DATA = Path(__file__).parent / "data"
LAZY = ("scipy", "concurrent.futures.process")

# imports the package's oracle re-exports, runs main(argv) and reports, as
# its last stdout line, which LAZY modules it loaded
CHILD = """
import json, sys
from bargtop import numeric_weyl, truncated_matrix
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


def test_oracle_loads_scipy_where_it_is_called(tmp_path):
    path = tmp_path / "p.yaml"
    path.write_text("n: 1\nphi0:\n  hermitian: [[[0.25, 0.0]]]\nq:\n  xbarx: [[[-0.5, 0.0]]]\n")
    result = run_main(["oracle", str(path), "--experiment", "trend", "-N", "5,10"])
    assert result["rc"] == 0 and "scipy" in result["loaded"]


def test_verify_runs_from_module_entry_point():
    proc = fresh_python("-m", "bargtop", "verify", "--suite", "mehler")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("mehler: pass")
