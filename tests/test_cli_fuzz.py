"""Every ``scan``, ``oracle`` and ``verify`` invocation ends in an exit
code, 0/1/2/3, never in a traceback.

``classify`` has the same property in ``tests/test_io.py``. Inputs stay
small (grids of at most 27 points, bases of at most 20 functions at n=1)
so the three properties run in a few seconds together.
"""

import contextlib
import io
import os

import pytest
from hypothesis import event, example, given, settings, strategies as st

from bargtop import verify
from bargtop.cli import main

EXIT_CODES = {0, 1, 2, 3}


def run_cli(argv):
    """Exit code and stderr of ``main(argv)``; any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects its own arguments this way
            rc = exc.code
    event(f"exit {rc}")  # the mix of outcomes, shown by --hypothesis-show-statistics
    return rc, err.getvalue()


# grid values as typed on a command line: numbers, non-finite, malformed, empty
numbers = st.floats(-1.0, 1.0, allow_nan=False).map(repr)
values = st.one_of(
    numbers,
    st.sampled_from(["0", "-0.0", "0.25", "1e308", "-1e308", "nan", "-inf", "inf", "1e400",
                     "", "x", "1,2"]),
)
# step counts stay at most 3 so a grid holds at most 3 * 3 * 3 points
steps = st.sampled_from(["-1", "0", "1", "2", "3", "2.5", "", "x"])
ranges = st.one_of(
    st.tuples(numbers, numbers, st.integers(2, 3)).map(
        lambda t: f"{min(t[:2], key=float)}:{max(t[:2], key=float)}:{t[2]}"),
    st.builds(lambda a, b, k: f"{a}:{b}:{k}", values, values, steps),
    st.sampled_from(["", ":", "::", "0:1", "0:1:2:3", "a:b:c", "0.1:0.1:1"]),
)
# ||A|| near the float maximum: 2 ||A|| overflows from 8.99e307 on
large = st.sampled_from(["8.9e307", "1e308", "1.7e308"])
large_norm_ranges = st.one_of(
    large.map(lambda v: f"{v}:{v}:1"),
    st.tuples(numbers, large, st.integers(2, 3)).map(lambda t: "{}:{}:{}".format(*t)),
)
value_lists = st.one_of(
    st.lists(numbers, min_size=1, max_size=3, unique=True),
    st.lists(values, max_size=3),
).map(",".join)


@settings(max_examples=100, deadline=None)
@given(lambda_re=ranges, lambda_im=value_lists, norm_a=st.one_of(ranges, large_norm_ranges))
def test_scan_exits_with_a_code(lambda_re, lambda_im, norm_a):
    rc, err = run_cli(["scan", f"--lambda-re={lambda_re}", f"--lambda-im={lambda_im}",
                       f"--norm-a={norm_a}", "-o", os.devnull])
    assert rc in EXIT_CODES and "Traceback" not in err


def yaml_complex(z):
    # YAML 1.1 floats need a '.' and a signed exponent, which %e writes
    return f"[{z.real:.6e}, {z.imag:.6e}]"


small = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "p.yaml"


@settings(max_examples=40, deadline=None)
@given(
    # Levi forms near the model weight
    h=st.floats(0.1, 0.3),
    p=st.one_of(st.just(0j), small),
    q=st.tuples(small, small, small),
    experiment=st.sampled_from(["trend", "decay", "weyl", "coherent"]),
    sizes=st.one_of(
        st.lists(st.integers(1, 20), min_size=1, max_size=3).map(lambda s: ",".join(map(str, s))),
        st.sampled_from(["0", "-3", "", "5,,10", "x"]),
    ),
    # the whole problem dilated toward the float maximum, where the oracle's
    # Gaussian exponents and values overflow
    scale=st.sampled_from([1.0, 1e150, 1e300, 1e308]),
)
# dilations that once overflowed the coherent basis size 6 Phi(e_1) and the
# modulus of a Weyl value
@example(h=0.3, p=0j, q=(0j, -0.5 + 0j, 0j), experiment="coherent", sizes="10", scale=1e308)
@example(h=0.2864119, p=-0.2695472 + 0.1603106j,
         q=(0.2991968 + 0.3275483j, -0.3397056 + 0.2545481j, 0.3368365 + 0.3200471j),
         experiment="weyl", sizes="10", scale=1e308)
def test_oracle_exits_with_a_code(problem_path, h, p, q, experiment, sizes, scale):
    h, p = scale * h, scale * p
    qxx, qxbx, qxbxb = (scale * v for v in q)
    problem_path.write_text(
        f"n: 1\nphi0:\n  hermitian: [[{yaml_complex(complex(h))}]]\n"
        f"  pluriharmonic: [[{yaml_complex(p)}]]\n"
        f"q:\n  xx: [[{yaml_complex(qxx)}]]\n  xbarx: [[{yaml_complex(qxbx)}]]\n"
        f"  xbarxbar: [[{yaml_complex(qxbxb)}]]\n"
    )
    rc, err = run_cli(["oracle", str(problem_path), "--experiment", experiment, f"-N={sizes}"])
    assert rc in EXIT_CODES and "Traceback" not in err


@settings(max_examples=20, deadline=None)
@given(
    suite=st.sampled_from([None, "nonsense", ""] + sorted(verify.SUITES)),
    seed=st.one_of(st.integers(0, 2**64), st.integers(-3, -1),
                   st.sampled_from(["x", "1.5", ""])),
    n=st.one_of(st.sampled_from(["1", "2"]), st.sampled_from(["0", "3", "x"])),
)
def test_verify_exits_with_a_code(suite, seed, n):
    argv = ["verify", f"--seed={seed}", f"--n={n}"]
    if suite is not None:
        argv.append(f"--suite={suite}")
    rc, err = run_cli(argv)
    assert rc in EXIT_CODES and "Traceback" not in err
