import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ALL_METHODS, IMAGE_MODELS, asset, assert_same, blocks_match_bits,
                      image_case, smoothgrad)
from localex.errors import (MAX_VALUES, ConfigError, DimensionTooLarge, NonFiniteOutput,
                            ShapDegenerate)
from localex.explain import (
    ExplainRequest,
    GlimeBinomial,
    GlimeGauss,
    GlimeLaplace,
    GlimeUniform,
    KernelShap,
    Lime,
    SmoothGrad,
    default_lambda,
    explain,
    explanation_from_json,
    explanation_to_json,
    infinite_limit_linear_binomial,
    infinite_limit_linear_gauss,
    method_from_json,
    method_name,
    method_to_json,
)
from localex.feature_space import (
    Reference,
    grid_segment,
    mean_reference,
    singleton_segments,
)
from localex.harness import load_input
from localex.models import (BLOCK_ROWS, Linear, Quadratic, Remote, evaluate, gradient,
                            load_model)
from localex.sampling import EXACT_SHAP_MAX_D, Gaussian, draw
from oracles import explain_whole, shapley_bruteforce, smoothgrad_direct

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


def test_unknown_method_tag_is_a_config_error():
    with pytest.raises(ConfigError):
        method_from_json({"method": "Anchors", "sigma": 1.0})
    with pytest.raises(ConfigError):
        method_from_json({"sigma": 1.0})
    with pytest.raises(ConfigError):
        method_from_json({"method": "Lime"})  # sigma required


def test_default_lambda_is_one_for_ridge_methods_and_zero_otherwise():
    assert default_lambda(Lime(0.5)) == 1.0
    assert default_lambda(GlimeGauss(0.5)) == 1.0
    assert default_lambda(KernelShap()) == 0.0
    assert default_lambda(SmoothGrad(0.5)) == 0.0


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
    from localex.models import Mlp

    rng = np.random.default_rng(7)
    model = Mlp(
        (rng.normal(size=(4, 12)) * 0.6, rng.normal(size=(12, 1)) * 0.6),
        (rng.normal(size=12) * 0.1, rng.normal(size=1) * 0.1),
    )
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
        exp = explain(request(method, n=200, lam=default_lambda(method)))
        obj = explanation_to_json(exp)
        # the key order is part of the output bytes
        keys = ["method", "sigma", "lambda", "n", "seed", "d", "w", "intercept", "r2"]
        if getattr(method, "unit_weights", False):
            keys.append("unit_weights")
        if isinstance(method, KernelShap):
            keys.append("exact")
        assert list(obj) == keys
        back = explanation_from_json(obj)
        assert back.method == exp.method
        assert np.allclose(back.w, exp.w)
        assert back.seed == exp.seed and back.n == exp.n and back.d == exp.d


def test_kernelshap_explanation_has_no_sigma():
    exp = explain(request(KernelShap(), n=1, lam=0.0))
    assert exp.sigma is None
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


def test_blocks_leave_remote_posts_unchanged(monkeypatch):
    posts = []

    def post(self, batch):
        posts.append(len(batch))
        return batch.sum(axis=1)

    monkeypatch.setattr(Remote, "_post", post)
    # 100 does not divide BLOCK_ROWS: a block is one POST, not 512 points
    model = Remote("http://127.0.0.1:9/f", batch_size=100)
    explain(request(GlimeGauss(0.3), n=1000, model=model))
    assert posts == [100] * 10


def test_non_finite_responses_are_counted_over_every_block():
    # f = 1e308 z_0 overflows where |z_0| > 1.79, in each of the three blocks
    model = Linear(np.r_[1e308, np.zeros(7)])
    z0 = draw(Gaussian(8, 1.0), 1300, 4)[:, 0]
    overflow = np.abs(z0) > np.finfo(float).max / 1e308
    assert all(overflow[start:start + BLOCK_ROWS].any() for start in range(0, 1300, BLOCK_ROWS))
    with pytest.raises(NonFiniteOutput, match=rf"^model returned {overflow.sum()} "
                       r"non-finite value\(s\) for 1300 points$"):
        explain(request(GlimeGauss(1.0), n=1300, seed=4, model=model, x=np.zeros(8)))
