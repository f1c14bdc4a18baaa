import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ALL_METHODS, IMAGE_MODELS, asset, assert_same, blocks_match_bits,
                      image_case, smoothgrad)
import localex.explain as explain_module
from localex.cli import main
from localex.errors import (MAX_VALUES, ConfigError, DimensionTooLarge, NonFiniteOutput,
                            RemoteUnavailable, ShapDegenerate)
from localex.explain import (
    ExplainRequest,
    GlimeBinomial,
    GlimeGauss,
    GlimeLaplace,
    GlimeUniform,
    KernelShap,
    Lime,
    MethodSpec,
    SmoothGrad,
    explain,
    explanation_to_json,
    method_from_json,
    method_to_json,
)
from localex.feature_space import (
    Reference,
    grid_segment,
    mean_reference,
    singleton_segments,
)
from localex.harness import load_input
from localex import models
from localex.models import (BLOCK_ROWS, Linear, Quadratic, Remote, evaluate, evaluate_blocks,
                            load_model)
from localex.sampling import (EXACT_SHAP_MAX_D, Binomial, Coalitions, DistributionSpec,
                              Gaussian, Laplace, UniformBinary, UniformBox, draw)
from oracles import (explain_whole, gradient, infinite_limit_linear_binomial,
                     infinite_limit_linear_gauss, lift_direct, shapley_bruteforce,
                     smoothgrad_direct)

RNG = np.random.default_rng(2718)
C8 = RNG.normal(size=8) * 0.4
X8 = RNG.normal(size=8)
LINEAR8 = Linear(C8, 0.3)
SEG8 = singleton_segments(8)
REF8 = Reference(np.zeros(8))


def request(method, n=20000, seed=0, lam=1e-8, model=LINEAR8, x=X8, seg=SEG8,
            reference=REF8):
    return ExplainRequest(model=model, x=x, segmentation=seg, method=method,
                         n=n, seed=seed, lam=lam, reference=reference)


# ---------------------------------------------------------------------------
# method specs and serialization


def test_method_json_round_trips():
    for m in ALL_METHODS:
        assert method_from_json(method_to_json(m)) == m


# each method and law class: the arguments of one instance, and its field names
VALUE_CLASSES = {
    Lime: ((0.5, True), ("sigma", "unit_weights")),
    GlimeBinomial: ((0.5,), ("sigma",)),
    GlimeGauss: ((0.5,), ("sigma",)),
    GlimeLaplace: ((0.5,), ("sigma",)),
    GlimeUniform: ((0.5,), ("sigma",)),
    KernelShap: ((False,), ("exact",)),
    SmoothGrad: ((0.5,), ("sigma",)),
    UniformBinary: ((3,), ("d",)),
    Binomial: ((3, 0.5), ("d", "sigma")),
    Gaussian: ((3, 0.5), ("d", "sigma")),
    Laplace: ((3, 0.5), ("d", "sigma")),
    UniformBox: ((3, 0.5), ("d", "sigma")),
    Coalitions: ((3, False), ("d", "exact")),
}


@pytest.mark.parametrize("cls", typing.get_args(MethodSpec) + typing.get_args(DistributionSpec),
                         ids=lambda cls: cls.__name__)
def test_method_and_law_classes_are_frozen_values(cls):
    args, names = VALUE_CLASSES[cls]
    value = cls(*args)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    # every annotation a class declares is a field: in a subclass that inherits
    # its parent's dataclass instead of being decorated, it would not be one
    assert set(inspect.get_annotations(cls)) <= set(names)
    assert value == cls(*args) and hash(value) == hash(cls(*args))
    # equality compares the class too: a sibling or a subclass with the same
    # fields is another value
    others = [other for other, (_, other_names) in VALUE_CLASSES.items()
              if other is not cls and other_names == names]
    for other in [*others, type(cls.__name__, (cls,), {})]:
        assert value != other(*args)
    assert repr(value).startswith(f"{cls.__name__}(")
    # neither a field nor any other name can be set or deleted
    for name in (names[0], "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, args[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    if cls in typing.get_args(MethodSpec):
        assert method_from_json(method_to_json(value)) == value


def test_unknown_method_tag_is_a_config_error():
    with pytest.raises(ConfigError):
        method_from_json({"method": "Anchors", "sigma": 1.0})
    with pytest.raises(ConfigError):
        method_from_json({"sigma": 1.0})
    with pytest.raises(ConfigError):
        method_from_json({"method": "Lime"})  # sigma required


def test_default_lambda_is_one_for_ridge_methods_and_zero_otherwise(tmp_path, capsys):
    # an explain config without "lambda" fits at 1, unless the method fixes its own
    (tmp_path / "model.json").write_text(json.dumps({"kind": "linear",
                                                     "coefficients": C8.tolist()}))
    (tmp_path / "input.json").write_text(json.dumps(X8.tolist()))
    cfg = tmp_path / "explain.json"
    for method, lam in ((Lime(0.5), 1.0), (GlimeGauss(0.5), 1.0), (KernelShap(), 0.0),
                        (SmoothGrad(0.5), 0.0)):
        cfg.write_text(json.dumps({"model": "model.json", "input": "input.json",
                                   "method": method_to_json(method), "n": 64}))
        assert main(["explain", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["lambda"] == lam


@pytest.mark.parametrize("cls", [Lime, GlimeBinomial, GlimeGauss, GlimeLaplace,
                                 GlimeUniform, SmoothGrad])
def test_methods_reject_nonpositive_sigma(cls):
    with pytest.raises(ValueError):
        cls(0.0)


# ---------------------------------------------------------------------------
# request validation


def test_binary_methods_require_a_reference():
    with pytest.raises(ConfigError, match="reference"):
        request(Lime(0.5), reference=None)
    with pytest.raises(ConfigError, match="reference"):
        request(KernelShap(), reference=None)
    request(GlimeGauss(0.5), reference=None)  # continuous: fine without


def test_smoothgrad_requires_singleton_segments():
    seg = grid_segment(2, 4, 1, 1, 2)
    x = np.zeros(8)
    with pytest.raises(ConfigError):
        request(SmoothGrad(0.1), seg=seg, x=x)


def test_request_validates_counts_and_lambda():
    with pytest.raises(ConfigError):
        request(Lime(0.5), n=0)
    with pytest.raises(ConfigError):
        request(Lime(0.5), lam=-1.0)
    with pytest.raises(ConfigError):
        request(Lime(0.5), x=np.zeros(5))  # length mismatch vs segmentation
    request(Lime(0.5), n=MAX_VALUES // X8.size)  # n x D at the limit; nothing is drawn
    with pytest.raises(ConfigError, match="at most"):
        request(Lime(0.5), n=MAX_VALUES // X8.size + 1)


def test_request_bounds_the_d_x_d_ridge_system_by_the_value_limit():
    # 11,585^2 values fit in MAX_VALUES and 11,586^2 do not; n = 1 keeps n x D small
    d = math.isqrt(MAX_VALUES)
    request(GlimeGauss(0.5), n=1, x=np.zeros(d), seg=singleton_segments(d))
    with pytest.raises(ConfigError, match=re.escape(
            f"the ridge system's d x d must be at most {MAX_VALUES} values, "
            f"got {d + 1} x {d + 1}")):
        request(GlimeGauss(0.5), n=1, x=np.zeros(d + 1), seg=singleton_segments(d + 1))


# ---------------------------------------------------------------------------
# determinism


def test_identical_requests_give_bitwise_identical_explanations():
    for method in (Lime(0.7), GlimeBinomial(0.7), GlimeGauss(0.7), KernelShap(),
                   SmoothGrad(0.3)):
        a = explain(request(method, n=500))
        b = explain(request(method, n=500))
        assert np.array_equal(a.w, b.w)
        assert a.intercept == b.intercept


def test_different_seeds_give_different_monte_carlo_explanations():
    a = explain(request(Lime(0.7), n=500, seed=0))
    b = explain(request(Lime(0.7), n=500, seed=1))
    assert not np.array_equal(a.w, b.w)


# ---------------------------------------------------------------------------
# linear-model limits (the oracles the acceptance suite leans on)


@pytest.mark.parametrize("method", [Lime(1.0), GlimeBinomial(1.0)])
def test_binary_routes_approach_the_binomial_oracle(method):
    exp = explain(request(method, n=60000))
    w_star, b_star = infinite_limit_linear_binomial(C8, 0.3, X8, REF8, SEG8)
    assert np.allclose(exp.w, w_star, atol=0.05)
    assert exp.intercept == pytest.approx(b_star, abs=0.05)


@pytest.mark.parametrize("method", [GlimeGauss(0.5), GlimeLaplace(0.5), GlimeUniform(0.5)])
def test_continuous_routes_approach_the_additive_oracle(method):
    exp = explain(request(method, n=60000))
    w_star, b_star = infinite_limit_linear_gauss(C8, 0.3, X8, SEG8)
    assert np.allclose(exp.w, w_star, atol=0.05)
    assert exp.intercept == pytest.approx(b_star, abs=0.05)


def test_binary_oracle_on_a_grid_sums_within_segments():
    seg = grid_segment(2, 2, 1, 1, 2)  # two segments of two pixels
    c = np.array([1.0, 2.0, 3.0, 4.0])
    x = np.array([1.0, 1.0, 1.0, 1.0])
    ref = Reference(np.array([0.0, 0.5, 0.0, 0.5]))
    w, b = infinite_limit_linear_binomial(c, 0.1, x, ref, seg)
    # segment 0 holds pixels 0, 2; segment 1 holds pixels 1, 3
    assert w.tolist() == [1.0 * 1.0 + 3.0 * 1.0, 2.0 * 0.5 + 4.0 * 0.5]
    assert b == pytest.approx(0.1 + 2.0 * 0.5 + 4.0 * 0.5)


def test_additive_oracle_on_a_grid_sums_coefficients():
    seg = grid_segment(2, 2, 1, 1, 2)
    c = np.array([1.0, 2.0, 3.0, 4.0])
    x = np.array([0.5, -0.5, 1.0, 0.0])
    w, b = infinite_limit_linear_gauss(c, 0.0, x, seg)
    assert w.tolist() == [4.0, 6.0]
    assert b == pytest.approx(float(c @ x))


def test_continuous_explanations_ignore_the_reference():
    ref_a = Reference(np.zeros(8))
    ref_b = Reference(np.full(8, 5.0))
    for method in (GlimeGauss(0.5), GlimeLaplace(0.5), GlimeUniform(0.5)):
        a = explain(request(method, n=300, reference=ref_a))
        b = explain(request(method, n=300, reference=ref_b))
        assert np.array_equal(a.w, b.w)


def test_binary_explanations_depend_on_the_reference():
    a = explain(request(Lime(1.0), n=300, reference=Reference(np.zeros(8))))
    b = explain(request(Lime(1.0), n=300, reference=Reference(np.full(8, 5.0))))
    assert not np.array_equal(a.w, b.w)


# ---------------------------------------------------------------------------
# KernelShap


def shap_request(model, x, d, **kw):
    return request(KernelShap(**kw), model=model, x=x, seg=singleton_segments(d),
                   reference=Reference(np.zeros(d)), lam=0.0)


def test_kernelshap_exact_matches_bruteforce_shapley_on_a_pairwise_game():
    d = 5
    rng = np.random.default_rng(1)
    c = rng.normal(size=d)
    a = np.zeros((d, d))
    a[0, 3] = 0.7  # one pairwise interaction
    model = Quadratic(a, c, 0.2)
    x = rng.normal(size=d)
    exp = explain(shap_request(model, x, d))

    def value(mask):
        return float(evaluate(model, (x * mask)[None])[0])

    phi = shapley_bruteforce(value, d)
    assert np.allclose(exp.w, phi, atol=1e-10)
    assert exp.n == 2**d - 2


def test_kernelshap_sampled_mode_approaches_the_exact_solution():
    d = 6
    rng = np.random.default_rng(2)
    model = Linear(rng.normal(size=d), 0.0)
    x = rng.normal(size=d)
    exact = explain(shap_request(model, x, d))
    sampled = explain(request(KernelShap(exact=False), model=model, x=x,
                              seg=singleton_segments(d),
                              reference=Reference(np.zeros(d)), lam=0.0, n=40000))
    assert np.allclose(sampled.w, exact.w, atol=0.05)


def test_kernelshap_rejects_degenerate_and_oversized_problems():
    with pytest.raises(ShapDegenerate):
        explain(shap_request(Linear(np.ones(1)), np.ones(1), 1))
    big = EXACT_SHAP_MAX_D + 1
    with pytest.raises(DimensionTooLarge):
        explain(shap_request(Linear(np.ones(big)), np.ones(big), big))


def test_kernelshap_efficiency_on_interior_games():
    # additive + pairwise games: attributions sum to v(1) - v(0)
    d = 6
    rng = np.random.default_rng(3)
    a = np.zeros((d, d))
    a[1, 4] = -0.5
    model = Quadratic(a, rng.normal(size=d), 0.0)
    x = rng.normal(size=d)
    ref = Reference(np.zeros(d))
    exp = explain(shap_request(model, x, d))
    v_full = float(evaluate(model, x[None])[0])
    v_none = float(evaluate(model, np.zeros((1, d)))[0])
    assert exp.w.sum() == pytest.approx(v_full - v_none, abs=1e-8)


# ---------------------------------------------------------------------------
# SmoothGrad


def test_smoothgrad_recovers_a_linear_gradient():
    est = smoothgrad(LINEAR8, X8, 0.5, 50000, 4)
    assert np.allclose(est, C8, atol=0.02)


def test_smoothgrad_explanation_wraps_the_estimate():
    exp = explain(request(SmoothGrad(0.5), n=2000, lam=0.0))
    assert exp.r2 is None
    assert exp.lam == 0.0
    assert exp.intercept == pytest.approx(float(evaluate(LINEAR8, X8[None])[0]))
    direct = smoothgrad_direct(LINEAR8, X8, 0.5, 2000, 0)
    assert np.allclose(exp.w, direct, rtol=1e-12, atol=0)


def test_smoothgrad_bias_vanishes_for_affine_gradients():
    # quadratic models have affine gradients, so smoothing adds no bias and
    # the estimate converges to grad f(x) at every sigma
    rng = np.random.default_rng(5)
    model = Quadratic(rng.normal(size=(4, 4)) * 0.5, rng.normal(size=4), 0.0)
    x = rng.normal(size=4)
    g = gradient(model, x)
    est = smoothgrad(model, x, 0.5, 400000, 6)
    assert np.allclose(est, g, atol=0.05)


def test_smoothgrad_approaches_the_gradient_as_sigma_shrinks():
    # needs curvature in the gradient (tanh) so the smoothing bias dominates,
    # and a probe point with f ~ 0 so the noise term stays bounded as sigma
    # shrinks
    from localex.models import Layer, Mlp

    rng = np.random.default_rng(7)
    w1, w2 = rng.normal(size=(4, 12)) * 0.6, rng.normal(size=(12, 1)) * 0.6
    model = Mlp((Layer(w1, rng.normal(size=12) * 0.1), Layer(w2, rng.normal(size=1) * 0.1)))
    pts = rng.normal(size=(500, 4))
    vals = evaluate(model, pts)
    a = pts[np.argmax(vals)]
    b = pts[np.argmin(vals)]
    for _ in range(200):
        mid = 0.5 * (a + b)
        if evaluate(model, a[None])[0] * evaluate(model, mid[None])[0] <= 0:
            b = mid
        else:
            a = mid
    x = 0.5 * (a + b)
    g = gradient(model, x)
    errs = [np.abs(smoothgrad(model, x, s, 100000, 8) - g).max()
            for s in (0.5, 0.1, 0.02)]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# explanation records


def test_explanation_json_round_trips_with_method_flags():
    for method in ALL_METHODS:
        exp = explain(request(method, n=200, lam=1.0))
        obj = explanation_to_json(exp)
        # the key order is part of the output bytes
        keys = ["method", "sigma", "lambda", "n", "seed", "d", "w", "intercept", "r2"]
        if getattr(method, "unit_weights", False):
            keys.append("unit_weights")
        if isinstance(method, KernelShap):
            keys.append("exact")
        assert list(obj) == keys
        assert method_from_json({key: obj[key] for key in method_to_json(method)}) == exp.method
        assert obj["w"] == exp.w.tolist() and obj["d"] == exp.d == len(exp.w)
        assert obj["seed"] == exp.seed and obj["n"] == exp.n


def test_kernelshap_explanation_has_no_sigma():
    exp = explain(request(KernelShap(), n=1, lam=0.0))
    assert explanation_to_json(exp)["sigma"] is None


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_explanation_dimensions_follow_the_segmentation(seed):
    seg = grid_segment(4, 4, 1, 2, 2)
    rng = np.random.default_rng(seed)
    model = Linear(rng.normal(size=16), 0.0)
    x = rng.normal(size=16)
    exp = explain(ExplainRequest(model=model, x=x, segmentation=seg,
                                 method=Lime(0.8), n=64, seed=seed, lam=1.0,
                                 reference=mean_reference(x, seg)))
    assert exp.w.shape == (4,)
    assert exp.d == 4
    assert np.all(np.isfinite(exp.w))


# ---------------------------------------------------------------------------
# lifting and evaluating in blocks

# one method per lift: Lime's masks against a reference, GlimeGauss's offsets
LIFTS = (Lime(0.5), GlimeGauss(0.3))


@pytest.mark.parametrize("kind, side", IMAGE_MODELS)
@pytest.mark.parametrize("method", LIFTS, ids=repr)
@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 1300])
def test_blocked_explain_equals_one_whole_evaluation(kind, side, method, n):
    model, x, seg = image_case(kind, side)
    req = ExplainRequest(model=model, x=x, segmentation=seg, method=method, n=n, seed=5,
                         reference=mean_reference(x, seg))
    exp = explain(req)
    assert_same(np.r_[exp.w, exp.intercept, exp.r2], np.r_[explain_whole(req)],
                blocks_match_bits(kind, side, n))


def test_a_builtin_model_evaluates_every_repeated_mask():
    # 1024 small-sigma masks hold about 45 distinct ones. Evaluating only those
    # would give other bits here: a builtin's responses depend on the row count
    # of its call, so only a model that waits on a server is asked once per mask
    x = load_input(asset("input_8x8.json"))[0]
    seg = grid_segment(8, 8, 1, 4, 4)
    req = ExplainRequest(model=load_model(asset("linear_8x8.json")), x=x, segmentation=seg,
                         method=GlimeBinomial(0.5), n=1024, seed=0,
                         reference=mean_reference(x, seg))
    exp = explain(req)
    assert_same(np.r_[exp.w, exp.intercept, exp.r2], np.r_[explain_whole(req)], True)


@pytest.mark.parametrize("method", LIFTS, ids=repr)
def test_explain_memory_does_not_grow_with_the_lifted_rows(method):
    model, x, seg = image_case("linear", 32)  # D = 3072, d = 64
    peaks = []
    for n in (2048, 8192):
        req = ExplainRequest(model=model, x=x, segmentation=seg, method=method, n=n,
                             seed=0, reference=mean_reference(x, seg))
        tracemalloc.start()
        try:
            explain(req)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a whole lift would add 6144 rows x D x 8 bytes = 144 MiB; only the n x d
    # samples and their weights, responses and fit may grow
    extra_samples = (8192 - 2048) * seg.d * 8
    assert peaks[1] - peaks[0] <= 4 * extra_samples, peaks


_PEAK_OVER_WARM = """
import sys
import numpy as np
from localex.explain import ExplainRequest, GlimeBinomial, GlimeGauss, Lime, explain
from localex.feature_space import Reference, singleton_segments
from localex.models import Linear

def peak_kib():  # this process's own peak resident set, VmHWM
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

method = {"Lime": Lime, "GlimeBinomial": GlimeBinomial, "GlimeGauss": GlimeGauss}[sys.argv[1]]
n, d = int(sys.argv[2]), 64
rng = np.random.default_rng(0)
model, x, seg = Linear(rng.normal(size=d), 0.5), rng.normal(size=d), singleton_segments(d)
ref = Reference(np.zeros(d))
explain(ExplainRequest(model, x, seg, method(1.0), 256, 1, reference=ref))  # warm up
base = peak_kib()
explain(ExplainRequest(model, x, seg, method(1.0), n, 2, reference=ref))
print(peak_kib() - base)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_explain_peak_memory_over_a_warm_baseline_stays_near_the_design():
    # The peak resident set of a child process over one explain, in multiples
    # of the n x d design's float64 bytes: bool masks and two float arrays for
    # the binary laws, the float offsets and two more for the continuous ones.
    # The child reads VmHWM, not ru_maxrss: Linux carries ru_maxrss across fork
    # and exec, so a child's would start at the RSS of this test process.
    import localex

    n, d = 2**15, 64
    bounds = {"Lime": 2.4, "GlimeBinomial": 2.4, "GlimeGauss": 3.3}
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.path.dirname(os.path.dirname(localex.__file__))}
    children = {name: subprocess.Popen([sys.executable, "-c", _PEAK_OVER_WARM, name, str(n)],
                                       stdout=subprocess.PIPE, text=True, env=env)
                for name in bounds}
    ratios = {}
    for name, child in children.items():
        out, _ = child.communicate(timeout=60)
        assert child.returncode == 0, name
        ratios[name] = int(out) * 1024 / (n * d * 8)
    assert all(ratios[name] <= bound for name, bound in bounds.items()), ratios


def _spied_explain(req, monkeypatch):
    """explain(req) and, per block evaluated, whether it was evaluated off the
    calling thread and whether its points were column-major."""
    caller, blocks = threading.get_ident(), []

    def spy(model, points):
        blocks.append((threading.get_ident() != caller, points.flags.f_contiguous))
        return evaluate(model, points)

    with monkeypatch.context() as patch:
        patch.setattr(explain_module, "evaluate", spy)
        return explain(req), blocks


@pytest.mark.parametrize("method", LIFTS, ids=repr)
@pytest.mark.parametrize("n", [1300, 2048])
def test_overlapped_blocks_give_the_serial_bits(method, n, monkeypatch):
    model, x, seg = image_case("mlp", 32)  # 3072 -> 32 -> 1
    req = ExplainRequest(model=model, x=x, segmentation=seg, method=method, n=n, seed=5,
                         reference=mean_reference(x, seg))
    exp, blocks = _spied_explain(req, monkeypatch)
    monkeypatch.setattr(models, "OVERLAP_FROM_WIDTH", math.inf)
    serial, serial_blocks = _spied_explain(req, monkeypatch)
    count = -(-n // BLOCK_ROWS)
    assert blocks == [(True, True)] * count and serial_blocks == [(False, True)] * count
    assert np.r_[exp.w, exp.intercept, exp.r2].tobytes() == \
        np.r_[serial.w, serial.intercept, serial.r2].tobytes()


def _planted(n, bad_rows):
    """n points of width 3072, with an infinity in each of bad_rows, and a
    lift of them that records the blocks it makes."""
    points = np.zeros((n, 3072))
    points[bad_rows, 0] = np.inf
    lifted = []

    def rows(block):
        lifted.append(block.start)
        return points[block]

    return rows, lifted


def test_overlapped_blocks_count_non_finite_responses_over_all_n():
    rows, lifted = _planted(1300, [3, 700, 701, 1299])  # blocks 0, 1 and 2
    with pytest.raises(NonFiniteOutput, match=r"^model returned 4 non-finite value\(s\) "
                       r"for 1300 points$"):
        evaluate_blocks(Linear(np.ones(3072)), 1300, rows, evaluate, overlap=True)
    assert lifted == [0, 512, 1024]


def _pool_workers():
    return [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


@pytest.mark.parametrize("lift_fails", [False, True])
def test_an_overlapped_forward_error_is_raised_once_the_helper_has_stopped(lift_fails):
    # block 0's forward fails while block 1 is lifted; its error comes first in
    # block order even when block 1's lift fails too
    rows, lifted = _planted(2048, [])

    def lift(block):
        if lift_fails and block.start:
            raise MemoryError
        return rows(block)

    def forward(model, points):
        raise RemoteUnavailable("block 0 failed")

    with pytest.raises(RemoteUnavailable, match="block 0 failed"):
        evaluate_blocks(Linear(np.ones(3072)), 2048, lift, forward, overlap=True)
    assert lifted == ([0] if lift_fails else [0, 512])
    assert _pool_workers() == []


def test_an_overlapped_lift_error_is_raised_after_the_block_before_it_is_evaluated():
    rows, lifted = _planted(2048, [])
    evaluated = []

    def lift(block):
        if block.start == 1024:
            raise MemoryError
        return rows(block)

    def forward(model, points):
        evaluated.append(len(points))
        return evaluate(model, points)

    with pytest.raises(MemoryError):
        evaluate_blocks(Linear(np.ones(3072)), 2048, lift, forward, overlap=True)
    assert lifted == [0, 512] and evaluated == [512, 512]
    assert _pool_workers() == []


def test_blocks_leave_remote_posts_unchanged(monkeypatch):
    posts = []

    def post(self, batch):
        posts.append(len(batch))
        return batch.sum(axis=1)

    monkeypatch.setattr(Remote, "_post", post)
    # 100 does not divide BLOCK_ROWS: each POST is still 100 points
    model = Remote("http://127.0.0.1:9/f", batch_size=100)
    explain(request(GlimeGauss(0.3), n=1000, model=model))
    assert posts == [100] * 10


def test_remote_exact_shap_posts_every_coalition_once_in_draw_order(monkeypatch):
    posts = []

    def post(self, batch):
        posts.append(batch.copy())
        return batch.sum(axis=1)

    def dedupe(design):
        raise AssertionError("exact coalitions are distinct by construction")

    monkeypatch.setattr(Remote, "_post", post)
    monkeypatch.setattr(explain_module, "_distinct_masks", dedupe)
    x, seg, ref = X8[:6], singleton_segments(6), Reference(np.zeros(6))
    model = Remote("http://127.0.0.1:9/f", batch_size=100)
    exp = explain(request(KernelShap(exact=True), model=model, x=x, seg=seg, reference=ref))
    masks = draw(Coalitions(6, True), exp.n, 0)
    assert len(masks) == 62
    assert len(posts) == 1
    assert posts[0].tobytes() == lift_direct(x, seg, masks, ref.values).tobytes()


def test_non_finite_responses_are_counted_over_every_block():
    # f = 1e308 z_0 overflows where |z_0| > 1.79, in each of the three blocks
    model = Linear(np.r_[1e308, np.zeros(7)])
    z0 = draw(Gaussian(8, 1.0), 1300, 4)[:, 0]
    overflow = np.abs(z0) > np.finfo(float).max / 1e308
    assert all(overflow[start:start + BLOCK_ROWS].any() for start in range(0, 1300, BLOCK_ROWS))
    with pytest.raises(NonFiniteOutput, match=rf"^model returned {overflow.sum()} "
                       r"non-finite value\(s\) for 1300 points$"):
        explain(request(GlimeGauss(1.0), n=1300, seed=4, model=model, x=np.zeros(8)))
