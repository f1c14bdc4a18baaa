import os.path

import numpy as np
import pytest

from localex import solver

from localex.explain import (
    ExplainRequest,
    GlimeBinomial,
    GlimeGauss,
    GlimeLaplace,
    GlimeUniform,
    KernelShap,
    Lime,
    SmoothGrad,
    explain,
)
from localex.feature_space import grid_segment, singleton_segments
from localex.models import BLOCK_ROWS, Layer, Linear, Mlp, Quadratic

ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")

# one instance of every method variant: each class, plus Lime's pi = 1
# ablation and KernelShap's sampled mode
ALL_METHODS = (Lime(0.5), Lime(0.5, unit_weights=True), GlimeBinomial(1.0),
               GlimeGauss(0.3), GlimeLaplace(0.3), GlimeUniform(0.3),
               KernelShap(), KernelShap(exact=False), SmoothGrad(0.1))

# (model kind, image side): every builtin kind on an 8x8x3 image, and the
# linear and MLP kinds at the image benchmark's 32x32x3; the quadratic kind's
# forward pass costs D^2 per point, so it stays on the small image
IMAGE_MODELS = (("linear", 8), ("quadratic", 8), ("mlp", 8), ("linear", 32), ("mlp", 32))


def blocks_match_bits(kind, side, n):
    """Whether responses to n points in BLOCK_ROWS blocks equal those of one
    whole forward call bit for bit, for the cases the tests run. Two OpenBLAS
    effects break this: a last block of one row takes another product kernel
    than the same row in a larger call (n = BLOCK_ROWS + 1), and a linear
    model's gemv, once split across threads, gives the rows left over by each
    thread's share another kernel, so which rows those are depends on the
    call's row count (seen at D = 3072, n = 1300). There the two agree to
    rounding."""
    return n % BLOCK_ROWS != 1 and not (kind == "linear" and side == 32 and n > BLOCK_ROWS)


def assert_same(actual, expected, bitwise):
    """Equal bit for bit, or, where bitwise is False, to rounding."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    if bitwise:
        assert actual.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0)


def asset(name: str) -> str:
    return os.path.join(ASSETS, name)


def smoothgrad(model, x, sigma, n, seed):
    """SmoothGrad's attributions on singleton segments of x."""
    return explain(ExplainRequest(model=model, x=x, segmentation=singleton_segments(x.size),
                                  method=SmoothGrad(sigma), n=n, seed=seed)).w


def image_case(kind, side, seed=0):
    """A builtin model of this kind on a side x side x 3 image, a random such
    image, and its grid of (side/4) x (side/4) cells."""
    rng = np.random.default_rng(seed)
    dim = side * side * 3
    x = rng.random(dim)
    if kind == "linear":
        model = Linear(rng.normal(size=dim) * 0.1, 0.2)
    elif kind == "quadratic":
        model = Quadratic(rng.normal(size=(dim, dim)) * 0.01, rng.normal(size=dim) * 0.1, 0.1)
    else:
        w1, w2 = rng.normal(size=(dim, 32)) / np.sqrt(dim), rng.normal(size=(32, 1))
        model = Mlp([Layer(w1, rng.normal(size=32) * 0.1), Layer(w2, np.zeros(1))])
    return model, x, grid_segment(side, side, 3, side // 4, side // 4)


@pytest.fixture
def blas(monkeypatch):
    """The thread count put at 3, a spy on the solver's setter, which every
    one_blas_thread scope calls, and the counts seen inside each fit; the count
    is put back afterwards."""
    calls = solver._openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread calls")
    get, set_ = calls
    default = get()
    seen = {"set": [], "in_fit": []}

    def spy_set(n):
        seen["set"].append(n)
        set_(n)

    fit = solver._fit

    def spy_fit(problem):
        seen["in_fit"].append(get())
        return fit(problem)

    monkeypatch.setattr(solver, "_openblas_threads", lambda: (get, spy_set))
    monkeypatch.setattr(solver, "_fit", spy_fit)
    set_(3)
    yield get, seen
    set_(default)
