import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localex.errors import DimensionMismatch
from localex.explain import Explanation, Lime
from localex.feature_space import Segmentation, singleton_segments
from localex.metrics import (
    explanation_distance,
    local_fidelity,
    sample_ball,
    top_k_indices,
    top_k_jaccard,
)
from localex.models import Linear, Quadratic
from oracles import average_ranks_direct, jaccard_direct


def make_exp(w, seed=0):
    w = np.asarray(w, dtype=np.float64)
    return Explanation(w, 0.0, None, Lime(1.0), 10, seed, 1.0, w.shape[0])


# ---------------------------------------------------------------------------
# top-K overlap


def test_top_k_indices_orders_by_value():
    assert top_k_indices(np.array([0.1, 3.0, -5.0, 2.0]), 2).tolist() == [1, 3]
    assert top_k_indices(np.array([0.1, 3.0, -5.0, 2.0]), 2, use_abs=True).tolist() == [2, 1]


def test_top_k_ties_resolve_to_lower_indices():
    assert top_k_indices(np.zeros(6), 3).tolist() == [0, 1, 2]


def test_jaccard_of_identical_explanations_is_one():
    exps = [make_exp([3.0, 2.0, 1.0, 0.0], seed=s) for s in range(4)]
    report = top_k_jaccard(exps, 2)
    assert report.mean_jaccard == 1.0
    assert report.n_seeds == 4
    assert len(report.pairwise) == 6


def test_jaccard_of_disjoint_top_sets_is_zero():
    a = make_exp([5.0, 4.0, 0.0, 0.0])
    b = make_exp([0.0, 0.0, 5.0, 4.0], seed=1)
    assert top_k_jaccard([a, b], 2).mean_jaccard == 0.0


def test_jaccard_matches_set_arithmetic():
    a = make_exp([5.0, 4.0, 3.0, 0.0, 0.0])
    b = make_exp([5.0, 0.0, 3.0, 4.0, 0.0], seed=1)
    report = top_k_jaccard([a, b], 3)
    expected = jaccard_direct([0, 1, 2], [0, 2, 3])
    assert report.mean_jaccard == pytest.approx(expected)


def test_jaccard_default_k_caps_at_twenty():
    exps = [make_exp(np.arange(30.0), seed=s) for s in range(2)]
    assert top_k_jaccard(exps).k == 20
    small = [make_exp(np.arange(4.0), seed=s) for s in range(2)]
    assert top_k_jaccard(small).k == 4


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
    assert 0.0 <= report.mean_jaccard <= 1.0
    assert all(0.0 <= p <= 1.0 for p in report.pairwise)


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
    exp = Explanation(c, float(c @ x + 0.3), None, Lime(1.0), 10, 0, 0.0, 3)
    rep = local_fidelity(model, x, exp, singleton_segments(3), 0.5, "l2", 2000, 1)
    assert rep.fidelity == pytest.approx(1.0, abs=1e-12)


def test_fidelity_drops_below_one_for_a_zero_surrogate_on_varying_f():
    model = Linear(np.array([2.0, 2.0]), 0.0)
    x = np.zeros(2)
    exp = Explanation(np.zeros(2), 0.0, None, Lime(1.0), 10, 0, 0.0, 2)
    rep = local_fidelity(model, x, exp, singleton_segments(2), 1.0, "l2", 2000, 1)
    assert 0.0 < rep.fidelity < 1.0


def test_fidelity_matches_the_closed_form_for_a_pure_quadratic():
    # f(z) = ||z||^2 on the l2 ball around 0 with a zero surrogate:
    # MSE = E r^4 = eps^4 * D/(D+4) with D = 2 -> eps^4/3
    eps = 1.3
    model = Quadratic(np.eye(2), np.zeros(2), 0.0)
    exp = Explanation(np.zeros(2), 0.0, None, Lime(1.0), 10, 0, 0.0, 2)
    rep = local_fidelity(model, np.zeros(2), exp, singleton_segments(2),
                         eps, "l2", 200000, 2)
    assert rep.fidelity == pytest.approx(1.0 / (1.0 + eps**4 / 3.0), rel=0.02)


def test_fidelity_aggregates_segments_by_mean_offset():
    # two raw pixels per segment: the surrogate sees the mean of their offsets
    seg = Segmentation(np.array([0, 0]), 1, (2,))
    model = Linear(np.array([1.0, 1.0]), 0.0)
    x = np.zeros(2)
    exp = Explanation(np.array([2.0]), 0.0, None, Lime(1.0), 10, 0, 0.0, 1)
    rep = local_fidelity(model, x, exp, seg, 0.5, "linf", 4000, 3)
    # f(z) = z0 + z1 = 2 * mean(z) = surrogate exactly
    assert rep.fidelity == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# explanation distances


def test_distance_of_identical_explanations_is_zero_with_full_correlation():
    a = make_exp([1.0, 2.0, 3.0])
    d = explanation_distance(a, make_exp([1.0, 2.0, 3.0], seed=1))
    assert d.mse == 0.0 and d.mae == 0.0
    assert d.pearson == pytest.approx(1.0)
    assert d.spearman == pytest.approx(1.0)


def test_distance_matches_hand_computation():
    d = explanation_distance(make_exp([0.0, 2.0]), make_exp([1.0, 0.0], seed=1))
    assert d.mse == pytest.approx((1.0 + 4.0) / 2.0)
    assert d.mae == pytest.approx((1.0 + 2.0) / 2.0)
    assert d.pearson == pytest.approx(-1.0)
    assert d.spearman == pytest.approx(-1.0)


def test_distance_flags_constant_vectors_instead_of_nan():
    d = explanation_distance(make_exp([1.0, 1.0, 1.0]), make_exp([0.0, 1.0, 2.0], seed=1))
    assert d.degenerate_variance
    assert d.pearson == 0.0 and d.spearman == 0.0
    assert np.isfinite(d.mse)


def test_spearman_tracks_rank_agreement_not_magnitudes():
    a = make_exp([1.0, 2.0, 3.0, 4.0])
    b = make_exp([10.0, 200.0, 3000.0, 40000.0], seed=1)
    d = explanation_distance(a, b)
    assert d.spearman == pytest.approx(1.0)
    assert d.pearson < 1.0


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
    d = explanation_distance(make_exp(a), make_exp(b))
    if d.degenerate_variance:
        return
    direct = np.corrcoef(average_ranks_direct(a), average_ranks_direct(b))[0, 1]
    assert d.spearman == direct


def test_import_leaves_scipy_stats_unloaded():
    import localex

    src = os.path.dirname(os.path.dirname(localex.__file__))
    code = "import sys, localex; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"
