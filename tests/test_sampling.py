import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localex.errors import DimensionTooLarge, ShapDegenerate
from localex.sampling import (
    EXACT_SHAP_MAX_D,
    Binomial,
    Coalitions,
    ExpKernel,
    Gaussian,
    Laplace,
    ShapKernel,
    UniformBinary,
    UniformBox,
    Unit,
    batch_weights,
    bernoulli_p,
    binomial_pmf,
    draw,
    expected_weight_uniform,
    splitmix64,
    substream_seed,
)
from oracles import coalitions_direct, count_pmf_direct, lime_weight_direct, shap_weight_direct

U64 = st.integers(min_value=0, max_value=2**64 - 1)


# ---------------------------------------------------------------------------
# seeding


@given(U64)
def test_splitmix64_stays_in_range(x):
    y = splitmix64(x)
    assert 0 <= y < 2**64
    assert y == splitmix64(x)


@given(U64, U64, U64)
def test_substreams_of_distinct_replicates_differ(master, r1, r2):
    # splitmix64 is a bijection, so distinct XOR inputs give distinct outputs
    if r1 != r2:
        assert substream_seed(master, r1) != substream_seed(master, r2)


def test_draw_is_a_pure_function_of_its_arguments():
    for dist in (UniformBinary(6), Binomial(6, 0.5), Gaussian(6, 1.0),
                 Laplace(6, 1.0), UniformBox(6, 1.0)):
        a = draw(dist, 50, 123)
        b = draw(dist, 50, 123)
        c = draw(dist, 50, 124)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (50, 6)


# ---------------------------------------------------------------------------
# mask laws


def test_bernoulli_p_frozen_value_at_sigma_one():
    # 1/(1+e^{-1}) = e/(1+e)
    assert bernoulli_p(1.0) == pytest.approx(0.7310585786300049, abs=1e-15)


@given(st.floats(min_value=0.05, max_value=50.0))
def test_bernoulli_p_lies_between_half_and_one(sigma):
    p = bernoulli_p(sigma)
    assert 0.5 < p <= 1.0


@given(st.floats(min_value=0.05, max_value=10.0), st.floats(min_value=0.05, max_value=10.0))
def test_bernoulli_p_decreases_with_sigma(s1, s2):
    if s1 < s2:
        assert bernoulli_p(s1) >= bernoulli_p(s2)


def test_uniform_binary_draws_are_fair_coins():
    masks = draw(UniformBinary(8), 20000, 7)
    assert set(np.unique(masks)) <= {0.0, 1.0}
    assert abs(masks.mean() - 0.5) < 3.0 * 0.5 / math.sqrt(masks.size)


def test_binomial_draws_match_their_success_probability():
    dist = Binomial(8, 0.7)
    masks = draw(dist, 20000, 11)
    se = math.sqrt(dist.p * (1 - dist.p) / masks.size)
    assert abs(masks.mean() - dist.p) < 3.0 * se


@pytest.mark.parametrize("dist", [Gaussian(4, 0.8), Laplace(4, 0.8), UniformBox(4, 0.8)])
def test_continuous_laws_are_variance_matched(dist):
    z = draw(dist, 60000, 3)
    assert abs(z.mean()) < 0.02
    assert z.var() == pytest.approx(0.8**2, rel=0.03)


def test_uniform_box_respects_its_support():
    dist = UniformBox(3, 0.5)
    z = draw(dist, 10000, 1)
    assert np.all(np.abs(z) <= dist.half_width)
    assert dist.half_width == pytest.approx(math.sqrt(3.0) * 0.5)


def test_laplace_scale_property():
    assert Laplace(2, 1.0).scale == pytest.approx(1.0 / math.sqrt(2.0))


@pytest.mark.parametrize("bad", [0, -1])
def test_distributions_reject_nonpositive_dimension(bad):
    with pytest.raises(ValueError):
        UniformBinary(bad)


@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_distributions_reject_nonpositive_sigma(bad):
    with pytest.raises(ValueError):
        Gaussian(3, bad)


@pytest.mark.parametrize("d, n, seed", [
    (2, 1, 0), (3, 300, 7), (6, 40, 2**63 + 5), (10, 1000, 2**64 - 1), (16, 257, 3),
])
def test_coalitions_match_the_direct_draw_in_both_modes(d, n, seed):
    assert np.array_equal(draw(Coalitions(d, exact=False), n, seed),
                          coalitions_direct(d, n, seed, exact=False))
    if d <= 10:  # the direct enumeration is a Python loop over 2^d codes
        assert np.array_equal(draw(Coalitions(d), n, seed),
                              coalitions_direct(d, n, seed, exact=True))


def _float_masks(law, n: int, seed: int) -> np.ndarray:
    """A binary law's masks as float64 0s and 1s, from the generator calls that
    draw makes for them."""
    if isinstance(law, Coalitions):
        return coalitions_direct(law.d, n, seed, law.exact)
    rng = np.random.default_rng(seed)
    if isinstance(law, UniformBinary):
        return rng.integers(0, 2, size=(n, law.d)).astype(np.float64)
    return (rng.random(size=(n, law.d)) < law.p).astype(np.float64)


@pytest.mark.parametrize("law", [UniformBinary(7), Binomial(7, 0.6), Binomial(7, 3.0),
                                 Coalitions(7), Coalitions(7, exact=False)], ids=repr)
@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_binary_laws_draw_bool_masks_holding_the_float_masks_values(law, seed):
    masks = draw(law, 300, seed)
    assert masks.dtype == np.bool_ and masks.flags.c_contiguous
    assert masks.astype(np.float64).tobytes() == _float_masks(law, 300, seed).tobytes()


def test_continuous_laws_draw_float64_offsets():
    for law in (Gaussian(3, 1.0), Laplace(3, 1.0), UniformBox(3, 1.0)):
        assert draw(law, 4, 0).dtype == np.float64


def test_exact_coalitions_ignore_n_and_seed():
    every = draw(Coalitions(5), 1, 0)
    assert every.shape == (30, 5)
    assert np.array_equal(every, draw(Coalitions(5), 999, 2**63 + 1))
    assert set(every.sum(axis=1)) == {1, 2, 3, 4}


def test_coalitions_reject_degenerate_and_oversized_sets_when_built():
    for exact in (True, False):
        with pytest.raises(ShapDegenerate, match="KernelShap needs d >= 2"):
            Coalitions(1, exact)
    with pytest.raises(DimensionTooLarge, match=f"caps at d={EXACT_SHAP_MAX_D}, got d=21"):
        Coalitions(EXACT_SHAP_MAX_D + 1)
    Coalitions(EXACT_SHAP_MAX_D + 1, exact=False)  # sampled mode has no cap


# ---------------------------------------------------------------------------
# weighting kernels


def one_weight(wspec, mask):
    """batch_weights of one mask, as a one-row matrix."""
    return batch_weights(wspec, mask[None, :])[0]


@pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0])
def test_exp_kernel_matches_direct_formula(sigma):
    d = 12
    for k in range(d + 1):
        mask = np.r_[np.ones(k), np.zeros(d - k)]
        assert one_weight(ExpKernel(sigma), mask) == pytest.approx(
            lime_weight_direct(d, sigma, k), rel=1e-12
        )


def test_exp_kernel_anchor_values():
    # k = d-1 at sigma = 0.25 gives e^{-16}; k = d/2 gives e^{-8d}
    d = 20
    near_full = np.r_[np.ones(d - 1), 0.0]
    assert one_weight(ExpKernel(0.25), near_full) == pytest.approx(math.exp(-16.0), rel=1e-12)
    half = np.r_[np.ones(d // 2), np.zeros(d // 2)]
    assert one_weight(ExpKernel(0.25), half) == pytest.approx(math.exp(-8.0 * d), rel=1e-12)


def test_shap_kernel_matches_direct_formula():
    for d in (2, 4, 7, 10):
        for k in range(1, d):
            mask = np.r_[np.ones(k), np.zeros(d - k)]
            assert one_weight(ShapKernel(), mask) == pytest.approx(
                shap_weight_direct(d, k), rel=1e-14
            )


def test_shap_kernel_frozen_value():
    assert one_weight(ShapKernel(), np.array([1.0, 1.0, 0.0, 0.0])) == 0.125


def test_shap_kernel_rejects_degenerate_coalitions():
    with pytest.raises(ShapDegenerate):
        one_weight(ShapKernel(), np.zeros(5))
    with pytest.raises(ShapDegenerate):
        one_weight(ShapKernel(), np.ones(5))
    with pytest.raises(ShapDegenerate):
        batch_weights(ShapKernel(), np.vstack([np.ones(5), np.r_[1.0, np.zeros(4)]]))


def test_kernels_are_frozen_values_whose_equality_compares_the_class():
    # ShapKernel and Unit inherit the field-less _Kernel dataclass
    assert ShapKernel() == ShapKernel() and hash(Unit()) == hash(Unit())
    assert Unit() != ShapKernel() and ShapKernel() != Unit()
    assert ExpKernel(0.5) == ExpKernel(0.5) != ExpKernel(1.0)
    assert (repr(ExpKernel(0.5)), repr(ShapKernel()), repr(Unit())) == (
        "ExpKernel(sigma=0.5)", "ShapKernel()", "Unit()")
    assert [f.name for f in dataclasses.fields(ExpKernel)] == ["sigma"]
    assert dataclasses.fields(ShapKernel) == dataclasses.fields(Unit) == ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ExpKernel(0.5).sigma = 1.0
    for kernel in (ExpKernel(0.5), ShapKernel(), Unit()):  # a name that is not a field
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del kernel.extra


def test_unit_kernel_is_constant_one():
    assert one_weight(Unit(), np.array([1.0, 0.0])) == 1.0
    assert np.all(batch_weights(Unit(), draw(UniformBinary(4), 10, 0)) == 1.0)


@pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
@pytest.mark.parametrize("wspec", [ExpKernel(1.0), ShapKernel()], ids=repr)
def test_batch_weights_rejects_non_binary_masks(wspec, bad):
    with pytest.raises(ValueError, match="binary masks only"):
        batch_weights(wspec, np.array([[bad, 1.0, 0.0]]))


@pytest.mark.parametrize("wspec", [ExpKernel(0.3), ExpKernel(2.0), ShapKernel(), Unit()],
                         ids=repr)
def test_batch_weights_give_bool_masks_and_their_float_copy_the_same_bits(wspec):
    masks = draw(Coalitions(9, exact=False), 500, 4)
    assert masks.dtype == np.bool_
    assert (batch_weights(wspec, masks).tobytes()
            == batch_weights(wspec, masks.astype(np.float64)).tobytes())


def test_batch_weights_agree_with_one_row_calls():
    masks = draw(UniformBinary(9), 64, 5)
    batch = batch_weights(ExpKernel(0.7), masks)
    singles = [one_weight(ExpKernel(0.7), row) for row in masks]
    assert batch == pytest.approx(singles, rel=1e-14)


# ---------------------------------------------------------------------------
# closed-form summaries


@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=50)
def test_binomial_pmf_sums_to_one(d, sigma):
    total = sum(binomial_pmf(d, sigma, k) for k in range(d + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
def test_binomial_pmf_matches_direct_binomial(sigma):
    d = 15
    p = bernoulli_p(sigma)
    for k in range(d + 1):
        assert binomial_pmf(d, sigma, k) == pytest.approx(
            count_pmf_direct(d, p, k), rel=1e-10
        )


def test_binomial_pmf_frozen_value():
    # d = 2, k = 2, sigma = 1: (e/(1+e))^2
    assert binomial_pmf(2, 1.0, 2) == pytest.approx(bernoulli_p(1.0) ** 2, rel=1e-14)


def test_binomial_pmf_survives_extreme_small_sigma():
    # the normalizer e^{1/s^2} overflows a double at sigma = 0.1 if computed naively
    val = binomial_pmf(40, 0.1, 40)
    assert 0.9 < val <= 1.0


def test_expected_weight_uniform_matches_direct_formula():
    for d, sigma in ((5, 1.0), (20, 0.25), (40, 0.5)):
        direct = ((1.0 + math.exp(-1.0 / sigma**2)) / 2.0) ** d
        assert expected_weight_uniform(d, sigma) == pytest.approx(direct, rel=1e-12)


def test_expected_weight_matches_monte_carlo_at_moderate_scale():
    d, sigma, n = 8, 1.0, 40000
    w = batch_weights(ExpKernel(sigma), draw(UniformBinary(d), n, 17))
    se = w.std() / math.sqrt(n)
    assert abs(w.mean() - expected_weight_uniform(d, sigma)) < 3.0 * se
