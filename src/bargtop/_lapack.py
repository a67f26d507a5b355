"""Every LAPACK call of ``classify``, ``scan`` and ``oracle``, without
``np.linalg``'s dispatch.

Each ``np.linalg`` function converts and checks its argument and enters an
``np.errstate`` context before it runs one of NumPy's linalg gufuncs; on
the small matrices of a classification that costs more than the LAPACK
call.  These run the gufunc the ``np.linalg`` function would run, on a
float64 or complex128 matrix, so every result keeps its bits.  A failed
factorization fills its result with NaN (and NumPy warns); where
``np.linalg`` raises ``LinAlgError`` these raise :class:`NumericalFailure`,
which the command line reports with exit code 3.  Callers pass finite
matrices, and check the conditioning of every matrix they invert or solve
with first.

The callers are the classification's kernels (``forms``, ``toeplitz``,
``symplectic``, ``weyl``, ``bergman``, ``model``), the oracle's sections
and completed squares, and ``verify``'s coherent scale.  ``np.linalg``
stays only where a result is a reference, not a step of a command: the
general-weight involution ``symplectic.involution_for_weight``, and the
seeded draws and suites of ``verify`` that the tests and ``bargtop
verify`` compare the kernels against.

The gufuncs live in NumPy's private ``numpy.linalg._umath_linalg``, whose
names have held from NumPy 1.24 through 2.x but for the singular values
(``svd_n`` before 2.0, ``svd`` since).  Where a NumPy lacks the module or a
name, that call goes through ``np.linalg`` instead: the same results, with
its dispatch.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure

try:
    from numpy.linalg import _umath_linalg as _gufuncs
except ImportError:
    _gufuncs = None


def _bound(names, real: str, cpx: str, fallback, checked: bool = True):
    """The first gufunc of ``names`` this NumPy has, called with the
    float64 or complex128 signature; else ``fallback`` from ``np.linalg``."""
    gufunc = next((getattr(_gufuncs, name) for name in names if hasattr(_gufuncs, name)), None)
    if gufunc is None:
        def call(*args):
            try:
                return fallback(*args)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"LAPACK {names[0]} failed: {exc}") from exc
        return call

    def call(*args):
        out = gufunc(*args, signature=cpx if args[0].dtype.kind == "c" else real)
        if checked and out.size and out.flat[0] != out.flat[0]:
            raise NumericalFailure(f"LAPACK {gufunc.__name__} failed")
        return out
    return call


#: np.linalg.eigvalsh: the eigenvalues of a Hermitian matrix, ascending
eigvalsh = _bound(("eigvalsh_lo",), "d->d", "D->d", np.linalg.eigvalsh)
#: np.linalg.svd(a, compute_uv=False) of a square matrix: the singular
#: values, descending
svdvals = _bound(("svd", "svd_n"), "d->d", "D->d", lambda a: np.linalg.svd(a, compute_uv=False))
#: np.linalg.inv
inv = _bound(("inv",), "d->d", "D->D", np.linalg.inv)
#: np.linalg.solve for a matrix right-hand side
solve = _bound(("solve",), "dd->d", "DD->D", np.linalg.solve)
#: np.linalg.cholesky: the lower factor
cholesky = _bound(("cholesky_lo",), "d->d", "D->D", np.linalg.cholesky)
#: np.linalg.det and np.linalg.slogdet (as a pair), which cannot fail
det = _bound(("det",), "d->d", "D->D", np.linalg.det, checked=False)
slogdet = _bound(("slogdet",), "d->dd", "D->Dd", np.linalg.slogdet, checked=False)
_eigvals = _bound(("eigvals",), "d->D", "D->D", np.linalg.eigvals)


def eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals: the eigenvalues of a general matrix, complex, but
    real when ``a`` is real and every eigenvalue comes out real."""
    w = _eigvals(a)
    if a.dtype.kind != "c" and not w.imag.any():
        return w.real
    return w
