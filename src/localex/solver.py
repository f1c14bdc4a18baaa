"""Weighted ridge regression in closed form.

Conventions: the solver minimizes sum_i pi_i (y_i - b - w.z_i)^2 + lambda |w|^2
with the raw lambda of the finite-sample objective; callers own any per-n
rescaling. The intercept is fit by weighted centering and is never penalized.

The SPD solve calls LAPACK dpotrf/dpotrs from scipy's compiled module
scipy.linalg._flapack, with the flags scipy.linalg.cho_factor/cho_solve pass,
so the bits are theirs. The module is loaded from its file: importing
scipy.linalg would first run the package's __init__, which pulls in
numpy.f2py and numpy.testing and costs about 0.2 s of every cold start, and
even scipy's own __init__ costs about 1 MiB.

Every fit runs numpy's BLAS products on one thread, inside one_blas_thread.
OpenBLAS threads the products of a tall design, such as the 65,534-row
exact-KernelSHAP fit, and once the product is done its idle worker spins for
about 0.1 s, which doubles the CPU time of a sweep of small fits. The count is
set through ctypes on the OpenBLAS that numpy links, found at the first scope,
and it is process-wide. Under another BLAS, or an OpenBLAS whose thread calls
are not found, the scope does nothing. Where OpenBLAS splits a product of a
tall design (from about 2^15 rows at d = 16 on 2 threads), the split moves the
last bits of w, so every fit has its one-thread bits at any thread count;
shorter designs are not split and have the same bits either way.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteOutput, SingularSystem


def _load_flapack():
    """scipy.linalg._flapack, executed from its file without importing the
    scipy package or scipy.linalg: only scipy's directory is looked up. The
    interpreter records the extension under its full name in sys.modules, so
    a later import of scipy.linalg reuses it."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's compiled LAPACK module scipy.linalg._flapack was not "
                          f"found under {finder.path}; reinstall scipy")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()

_count_lock = threading.Lock()  # held while _open or the thread count is read or set
_open = 0  # one_blas_thread scopes open now, on any thread
_restore = 0  # the count the first of them found


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count calls of the OpenBLAS that numpy links,
    looked up through numpy.linalg's compiled module, whose dependencies
    include it; None where either is missing."""
    with contextlib.suppress(OSError, AttributeError):
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        return (ctypes.CFUNCTYPE(ctypes.c_int)(("scipy_openblas_get_num_threads64_", lib)),
                ctypes.CFUNCTYPE(None, ctypes.c_int)(("scipy_openblas_set_num_threads64_", lib)))


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS at one thread. Scopes nest and overlap: the
    first to open sets the count to one, and the last to close puts back the
    count the first found, when its body returns or raises. The scope takes its
    lock only to count scopes and read or set the thread count, never across
    its body, so a fit inside a command's scope, on the same thread, opens a
    scope of its own without waiting, and scopes on other threads run at once.
    The count is process-wide: numpy's BLAS calls on every Python thread run on
    one thread while any scope is open."""
    global _open, _restore
    calls = _openblas_threads()
    with _count_lock:
        if calls and not _open:
            _restore = calls[0]()
            calls[1](1)
        _open += 1
    try:
        yield
    finally:
        with _count_lock:
            _open -= 1
            if calls and not _open:
                calls[1](_restore)


@dataclass(frozen=True)
class RidgeProblem:
    """One weighted regularized least-squares instance."""

    design: np.ndarray
    responses: np.ndarray
    sample_weights: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        z = np.asarray(self.design)
        if z.dtype != np.bool_:  # bool masks stay one byte per entry until the fit
            z = np.asarray(z, dtype=np.float64)
        y = np.asarray(self.responses, dtype=np.float64)
        pi = np.asarray(self.sample_weights, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise ValueError("design must be an n x d matrix with n >= 1")
        n = z.shape[0]
        if y.shape != (n,) or pi.shape != (n,):
            raise ValueError("responses and sample_weights must have length n")
        if not np.all(pi > 0):
            raise SingularSystem(
                "all sample weights must be strictly positive "
                "(zero usually means a kernel weight underflowed)"
            )
        if not self.lam >= 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        object.__setattr__(self, "design", z)
        object.__setattr__(self, "responses", y)
        object.__setattr__(self, "sample_weights", pi)
        object.__setattr__(self, "lam", float(self.lam))


def _weighted_r2(y: np.ndarray, yhat: np.ndarray, yc: np.ndarray, pi: np.ndarray) -> float:
    """Weighted coefficient of determination, where yc is y less its weighted
    mean; 0 for constant responses, which the intercept fits exactly."""
    ss_tot = pi @ yc**2
    if ss_tot == 0.0:
        return 0.0
    return float(1.0 - pi @ (y - yhat) ** 2 / ss_tot)


def solve_weighted_ridge(problem: RidgeProblem) -> tuple[np.ndarray, float, float]:
    """The fitted surrogate (w, intercept, r2): attributions, unpenalized
    intercept and weighted R^2, by a closed-form solve via an SPD factorization
    of the d x d Gram matrix.

    Raises SingularSystem when lambda = 0 and the (centered) Gram matrix is
    rank-deficient; there is deliberately no pseudo-inverse fallback, since a
    silent minimum-norm solution would mask under-sampling.

    The fit runs inside one_blas_thread.
    """
    with one_blas_thread():
        return _fit(problem)


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as NonFiniteOutput
def _fit(problem: RidgeProblem) -> tuple[np.ndarray, float, float]:
    z, y, pi = problem.design, problem.responses, problem.sample_weights
    d = z.shape[1]
    sw = pi / pi.sum()
    ybar = float(sw @ y)
    yc = y - ybar
    # A bool design's float64 copy lives only while zbar and zc are made, and
    # zc is gone before yhat's copy is made, so the fit holds at most two n x d
    # float arrays, and each del frees a block that the next one reuses. BLAS
    # sees the values and layout it sees for a float design.
    zf = z.astype(np.float64, copy=False)
    zbar = sw @ zf
    zc = zf - zbar
    del zf
    gram = (zc * pi[:, None]).T @ zc
    rhs = zc.T @ (pi * yc)
    del zc
    if problem.lam == 0.0:
        # exact rank deficiency is expected here (duplicate rows, n < d);
        # detect it explicitly instead of trusting Cholesky pivot roundoff
        if np.linalg.matrix_rank(gram, hermitian=True) < d:
            raise SingularSystem(
                "normal equations are rank-deficient at lambda = 0; "
                "increase lambda or provide more (distinct) samples"
            )
        system = gram
    else:
        system = gram + problem.lam * np.eye(d)
    # the calls and flags of scipy.linalg.cho_factor(lower=True) and cho_solve
    chol, info = _flapack.dpotrf(system, lower=1, clean=0)
    if info > 0:
        raise SingularSystem(
            f"SPD factorization failed (lambda={problem.lam}): "
            f"{info}-th leading minor of the array is not positive definite"
        )
    w = _flapack.dpotrs(chol, rhs, lower=1)[0] if d else rhs  # LAPACK rejects d = 0
    intercept = ybar - float(w @ zbar)
    yhat = z.astype(np.float64, copy=False) @ w + intercept
    r2 = _weighted_r2(y, yhat, yc, pi)
    if not (np.all(np.isfinite(w)) and math.isfinite(intercept) and math.isfinite(r2)):
        raise NonFiniteOutput("ridge fit overflowed: model responses are too large")
    return w, intercept, r2

