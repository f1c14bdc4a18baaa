import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import IMAGE_MODELS, assert_same, blocks_match_bits, image_case
from localex import metrics
from localex.errors import DimensionMismatch
from localex.explain import Explanation, Lime, OneSlot
from localex.feature_space import Segmentation, grid_segment, singleton_segments
from localex.metrics import (
    BALL_CHUNK,
    NORMS,
    explanation_distance,
    local_fidelity,
    sample_ball,
    top_k_indices,
    top_k_jaccard,
    unit_ball,
)
from localex.models import Linear, Quadratic
from oracles import (average_ranks_direct, jaccard_direct, local_fidelity_whole,
                     sample_ball_direct, unit_ball_direct)


def make_exp(w, seed=0):
    w = np.asarray(w, dtype=np.float64)
    return Explanation(w, 0.0, None, Lime(1.0), 10, seed, 1.0)


# ---------------------------------------------------------------------------
# top-K overlap


def test_top_k_indices_orders_by_value():
    assert top_k_indices(np.array([0.1, 3.0, -5.0, 2.0]), 2).tolist() == [1, 3]


def test_top_k_ties_resolve_to_lower_indices():
    assert top_k_indices(np.zeros(6), 3).tolist() == [0, 1, 2]


def test_jaccard_of_identical_explanations_is_one():
    exps = [make_exp([3.0, 2.0, 1.0, 0.0], seed=s) for s in range(4)]
    assert top_k_jaccard(exps, 2) == {"mean_jaccard": 1.0, "std": 0.0}


def test_jaccard_of_disjoint_top_sets_is_zero():
    a = make_exp([5.0, 4.0, 0.0, 0.0])
    b = make_exp([0.0, 0.0, 5.0, 4.0], seed=1)
    assert top_k_jaccard([a, b], 2)["mean_jaccard"] == 0.0


def test_jaccard_matches_set_arithmetic():
    a = make_exp([5.0, 4.0, 3.0, 0.0, 0.0])
    b = make_exp([5.0, 0.0, 3.0, 4.0, 0.0], seed=1)
    expected = jaccard_direct([0, 1, 2], [0, 2, 3])
    assert top_k_jaccard([a, b], 3)["mean_jaccard"] == pytest.approx(expected)
    # three explanations: the mean and std over the pairs (a, b), (a, c), (b, c)
    c = make_exp([0.0, 4.0, 3.0, 5.0, 0.0], seed=2)
    pairs = [expected, jaccard_direct([0, 1, 2], [1, 2, 3]),
             jaccard_direct([0, 2, 3], [1, 2, 3])]
    report = top_k_jaccard([a, b, c], 3)
    assert report == {"mean_jaccard": pytest.approx(np.mean(pairs)),
                      "std": pytest.approx(np.std(pairs))}


@pytest.mark.parametrize("count", [2, 3, 10, 57, 300])
def test_jaccard_has_the_bits_of_the_mean_and_std_of_a_list_of_pair_scores(count):
    rng = np.random.default_rng(count)
    for k in (1, 3, 5):
        exps = [make_exp(rng.normal(size=8).round(1), seed) for seed in range(count)]
        tops = [set(top_k_indices(e.w, k).tolist()) for e in exps]
        pairs = [jaccard_direct(a, b) for i, a in enumerate(tops) for b in tops[i + 1:]]
        report = top_k_jaccard(exps, k)
        assert report == {"mean_jaccard": float(np.mean(pairs)), "std": float(np.std(pairs))}


def test_jaccard_default_k_caps_at_twenty():
    # the top 20 of 0..29 are 10..29: top 20 of the reverse shares 10..19 of them
    exps = [make_exp(np.arange(30.0)), make_exp(np.arange(30.0)[::-1], seed=1)]
    assert top_k_jaccard(exps) == top_k_jaccard(exps, 20) != top_k_jaccard(exps, 19)
    small = [make_exp([4.0, 3.0, 2.0, 1.0]), make_exp([1.0, 2.0, 3.0, 4.0], seed=1)]
    assert top_k_jaccard(small) == top_k_jaccard(small, 4) != top_k_jaccard(small, 3)


def test_jaccard_needs_at_least_two_explanations():
    with pytest.raises(ValueError):
        top_k_jaccard([make_exp([1.0, 2.0])])


def test_jaccard_rejects_mismatched_dimensions():
    with pytest.raises(DimensionMismatch):
        top_k_jaccard([make_exp([1.0, 2.0]), make_exp([1.0, 2.0, 3.0], seed=1)])


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=30)
def test_jaccard_lies_in_unit_interval(seed, k):
    rng = np.random.default_rng(seed)
    exps = [make_exp(rng.normal(size=8), seed=s) for s in range(3)]
    report = top_k_jaccard(exps, k)
    assert 0.0 <= report["mean_jaccard"] <= 1.0
    assert 0.0 <= report["std"] <= 0.5  # the spread of values in [0, 1]


# ---------------------------------------------------------------------------
# ball sampling


@pytest.mark.parametrize("norm,ord_", [("l2", 2), ("l1", 1), ("linf", np.inf)])
def test_ball_samples_respect_their_radius(norm, ord_):
    x = np.array([1.0, -2.0, 0.5])
    pts = sample_ball(x, 0.7, norm, 5000, 3)
    dist = np.linalg.norm(pts - x, ord=ord_, axis=1)
    assert pts.shape == (5000, 3)
    assert np.all(dist <= 0.7 + 1e-12)


def test_ball_samples_fill_the_radius():
    # mean distance for uniform-in-ball scales like eps * D/(D+1)
    x = np.zeros(4)
    for norm in ("l2", "l1", "linf"):
        pts = sample_ball(x, 1.0, norm, 20000, 5)
        ord_ = {"l2": 2, "l1": 1, "linf": np.inf}[norm]
        dist = np.linalg.norm(pts, ord=ord_, axis=1)
        assert dist.mean() == pytest.approx(4.0 / 5.0, abs=0.02)


def test_ball_sampling_is_deterministic_per_seed():
    x = np.zeros(2)
    assert np.array_equal(sample_ball(x, 1.0, "l2", 50, 7),
                          sample_ball(x, 1.0, "l2", 50, 7))
    assert not np.array_equal(sample_ball(x, 1.0, "l2", 50, 7),
                              sample_ball(x, 1.0, "l2", 50, 8))


@pytest.mark.parametrize("norm", NORMS)
def test_every_epsilon_of_a_shared_unit_ball_is_sample_balls_ball_bit_for_bit(monkeypatch,
                                                                             norm):
    m, seed = 1300, 9  # three blocks of points
    x = np.random.default_rng(4).normal(size=3072)
    seg = grid_segment(32, 32, 3, 8, 8)
    exp = Explanation(np.zeros(seg.d), 0.0, None, Lime(1.0), 10, 0, 1.0)
    draws, blocks = [], []
    monkeypatch.setattr(metrics, "unit_ball", lambda *args, real=metrics.unit_ball:
                        draws.append(args) or real(*args))
    monkeypatch.setattr(metrics, "evaluate", lambda model, pts, real=metrics.evaluate:
                        blocks.append(hashlib.sha256(pts).digest()) or real(model, pts))
    balls, evaluated = OneSlot(), {}
    for eps in (0.25, 0.3, 0.5, 1.0):  # 0.3: scaling by a power of two hides rounding
        local_fidelity(Linear(x), x, [exp], seg, eps, norm, m, seed, balls)
        evaluated[eps], blocks[:] = blocks[:], []
    assert draws == [(norm, m, 3072, seed)]  # one draw serves every epsilon
    for eps, hashes in evaluated.items():
        for ball in (sample_ball, sample_ball_direct):
            whole = ball(x, eps, norm, m, seed)
            assert hashes == [hashlib.sha256(whole[s:s + 512]).digest()
                              for s in range(0, m, 512)]


def traced_peak(compute):
    """compute()'s result and the peak of traced memory during it, above what
    was traced when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = compute()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("m", [1, 511, 512, 513, 1300])
def test_unit_ball_is_the_whole_norm_oracle_bit_for_bit(norm, m):
    for dim, seed in ((3, 7), (64, 1), (3072, 4)):
        ball = unit_ball(norm, m, dim, seed)
        directions, radii = unit_ball_direct(norm, m, dim, seed)
        assert ball.directions.tobytes() == directions.tobytes()
        assert (ball.radii is None) == (radii is None)
        if radii is not None:
            assert ball.radii.tobytes() == radii.tobytes()


@pytest.mark.parametrize("norm", NORMS)
def test_a_ball_holds_one_m_by_d_array(norm):
    # the draw, one chunk's buffer and small change: neither a whole-ball norm,
    # a chunk's own temporaries nor sample_ball's scaling makes a second array
    m, dim = 2048, 3072
    bound = m * dim * 8 + BALL_CHUNK * dim * 8 + 2**20
    ball, peak = traced_peak(lambda: unit_ball(norm, m, dim, 0))
    assert ball.directions.shape == (m, dim) and peak <= bound
    del ball
    points, peak = traced_peak(lambda: sample_ball(np.zeros(dim), 0.5, norm, m, 0))
    assert points.shape == (m, dim) and peak <= bound


@pytest.mark.parametrize("norm", NORMS)
def test_sample_ball_is_unit_ball_points_bit_for_bit(norm):
    x = np.random.default_rng(2).normal(size=64)
    for m in (1, 513, 1300):
        for eps in (0.3, 1.0):
            expected = unit_ball(norm, m, x.size, 5).points(x, eps)
            assert sample_ball(x, eps, norm, m, 5).tobytes() == expected.tobytes()
            rows = unit_ball(norm, m, x.size, 5).points(x, eps, slice(1, 3))
            assert rows.tobytes() == expected[1:3].tobytes()


def test_local_fidelity_holds_one_block_beside_the_ball_and_the_offsets():
    m, seed = 2048, 3
    model, x, seg = image_case("linear", 32)
    exp = Explanation(np.zeros(seg.d), 0.0, None, Lime(1.0), 10, 0, 1.0)
    balls = OneSlot()
    balls.get(("l2", m, x.size, seed), lambda: unit_ball("l2", m, x.size, seed))
    _, peak = traced_peak(lambda: local_fidelity(model, x, [exp], seg, 0.5, "l2", m, seed,
                                                 balls))
    block = model.block_rows * x.size * 8
    offsets = m * seg.d * 8
    basis = x.size * seg.d * 8  # feature_offsets' D x d projection
    assert peak <= block + offsets + basis + 2**20


def test_ball_sampling_validates_its_arguments():
    with pytest.raises(ValueError):
        sample_ball(np.zeros(2), 0.0, "l2", 10, 0)
    with pytest.raises(ValueError):
        sample_ball(np.zeros(2), 1.0, "l3", 10, 0)
    with pytest.raises(ValueError):
        sample_ball(np.zeros(2), 1.0, "l2", 0, 0)


# ---------------------------------------------------------------------------
# local fidelity


def test_fidelity_is_one_for_an_exact_surrogate():
    c = np.array([1.0, -2.0, 0.5])
    model = Linear(c, 0.3)
    x = np.array([0.2, 0.1, -0.4])
    exp = Explanation(c, float(c @ x + 0.3), None, Lime(1.0), 10, 0, 0.0)
    fid = local_fidelity(model, x, [exp], singleton_segments(3), 0.5, "l2", 2000, 1)[0]
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_fidelity_drops_below_one_for_a_zero_surrogate_on_varying_f():
    model = Linear(np.array([2.0, 2.0]), 0.0)
    x = np.zeros(2)
    exp = Explanation(np.zeros(2), 0.0, None, Lime(1.0), 10, 0, 0.0)
    fid = local_fidelity(model, x, [exp], singleton_segments(2), 1.0, "l2", 2000, 1)[0]
    assert 0.0 < fid < 1.0


def test_fidelity_matches_the_closed_form_for_a_pure_quadratic():
    # f(z) = ||z||^2 on the l2 ball around 0 with a zero surrogate:
    # MSE = E r^4 = eps^4 * D/(D+4) with D = 2 -> eps^4/3
    eps = 1.3
    model = Quadratic(np.eye(2), np.zeros(2), 0.0)
    exp = Explanation(np.zeros(2), 0.0, None, Lime(1.0), 10, 0, 0.0)
    fid = local_fidelity(model, np.zeros(2), [exp], singleton_segments(2),
                         eps, "l2", 200000, 2)[0]
    assert fid == pytest.approx(1.0 / (1.0 + eps**4 / 3.0), rel=0.02)


def test_fidelity_aggregates_segments_by_mean_offset():
    # two raw pixels per segment: the surrogate sees the mean of their offsets
    seg = Segmentation(np.array([0, 0]), 1)
    model = Linear(np.array([1.0, 1.0]), 0.0)
    x = np.zeros(2)
    exp = Explanation(np.array([2.0]), 0.0, None, Lime(1.0), 10, 0, 0.0)
    fid = local_fidelity(model, x, [exp], seg, 0.5, "linf", 4000, 3)[0]
    # f(z) = z0 + z1 = 2 * mean(z) = surrogate exactly
    assert fid == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind, side", IMAGE_MODELS)
@pytest.mark.parametrize("norm", NORMS)
def test_blocked_fidelity_equals_one_whole_evaluation(kind, side, norm):
    model, x, seg = image_case(kind, side)
    rng = np.random.default_rng(3)
    exps = [Explanation(rng.normal(size=seg.d), float(rng.normal()), None, Lime(1.0), 10, 0,
                        1.0) for _ in range(2)]
    assert_same(local_fidelity(model, x, exps, seg, 0.1, norm, 1300, 9),  # three blocks
                [local_fidelity_whole(model, x, e, seg, 0.1, norm, 1300, 9) for e in exps],
                blocks_match_bits(kind, side, 1300))


# ---------------------------------------------------------------------------
# explanation distances


def test_distance_of_identical_explanations_is_zero_with_full_correlation():
    a = make_exp([1.0, 2.0, 3.0])
    d = explanation_distance(a, make_exp([1.0, 2.0, 3.0], seed=1))
    assert d["mse"] == 0.0 and d["mae"] == 0.0
    assert d["pearson"] == pytest.approx(1.0)
    assert d["spearman"] == pytest.approx(1.0)


def test_distance_matches_hand_computation():
    d = explanation_distance(make_exp([0.0, 2.0]), make_exp([1.0, 0.0], seed=1))
    assert d["mse"] == pytest.approx((1.0 + 4.0) / 2.0)
    assert d["mae"] == pytest.approx((1.0 + 2.0) / 2.0)
    assert d["pearson"] == pytest.approx(-1.0)
    assert d["spearman"] == pytest.approx(-1.0)


def test_distance_flags_constant_vectors_instead_of_nan():
    d = explanation_distance(make_exp([1.0, 1.0, 1.0]), make_exp([0.0, 1.0, 2.0], seed=1))
    assert d["pearson"] == 0.0 and d["spearman"] == 0.0
    assert np.isfinite(d["mse"])


def test_spearman_tracks_rank_agreement_not_magnitudes():
    a = make_exp([1.0, 2.0, 3.0, 4.0])
    b = make_exp([10.0, 200.0, 3000.0, 40000.0], seed=1)
    d = explanation_distance(a, b)
    assert d["spearman"] == pytest.approx(1.0)
    assert d["pearson"] < 1.0


def test_distance_requires_matching_dimensions():
    with pytest.raises(DimensionMismatch):
        explanation_distance(make_exp([1.0]), make_exp([1.0, 2.0], seed=1))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50)
def test_spearman_uses_average_ranks_on_ties(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-2, 3, size=12).astype(np.float64)  # many ties, and -0.0
    a[rng.random(12) < 0.3] *= -0.0
    b = rng.normal(size=12)
    ra, rb = average_ranks_direct(a), average_ranks_direct(b)
    if min(np.ptp(a), np.ptp(b), np.ptp(ra), np.ptp(rb)) == 0.0:
        return  # a constant vector or constant ranks: no correlation is defined
    d = explanation_distance(make_exp(a), make_exp(b))
    direct = np.corrcoef(ra, rb)[0, 1]
    assert d["spearman"] == direct

