import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localex.errors import NotPositiveDefinite, SingularSystem, UnsupportedCombination
from localex.sampling import Binomial, ExpKernel, Gaussian, Laplace, UniformBinary, Unit, draw
from localex.solver import (
    RidgeProblem,
    RidgeSolution,
    analytic_moments,
    sherman_morrison_inverse,
    solve_weighted_ridge,
)
from oracles import CovarianceModel, dense_sigma_inverse, r_squared, ridge_bordered

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def random_problem(seed: int, n: int = 40, d: int = 5, lam: float = 0.3,
                   fit_intercept: bool = True) -> RidgeProblem:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    pi = rng.uniform(0.1, 2.0, size=n)
    return RidgeProblem(z, y, pi, lam, fit_intercept)


# ---------------------------------------------------------------------------
# closed-form solve


def test_exact_fit_without_intercept():
    p = RidgeProblem(np.array([[1.0], [1.0]]), np.array([1.0, 1.0]),
                     np.ones(2), 0.0, fit_intercept=False)
    sol = solve_weighted_ridge(p)
    assert sol.w == pytest.approx([1.0])
    assert sol.intercept == 0.0
    # constant responses: zero residual with zero variance reports R^2 = 0
    assert sol.r2 == 0.0
    assert not sol.degenerate_variance


def test_constant_responses_put_everything_in_the_intercept():
    p = RidgeProblem(np.random.default_rng(0).normal(size=(20, 3)),
                     np.full(20, 0.5), np.ones(20), 1.0)
    sol = solve_weighted_ridge(p)
    assert np.allclose(sol.w, 0.0)
    assert sol.intercept == pytest.approx(0.5)


def test_huge_lambda_shrinks_w_to_zero_and_keeps_the_weighted_mean():
    rng = np.random.default_rng(3)
    pi = rng.uniform(0.5, 1.5, size=30)
    y = rng.normal(size=30)
    p = RidgeProblem(rng.normal(size=(30, 4)), y, pi, 1e9)
    sol = solve_weighted_ridge(p)
    assert np.max(np.abs(sol.w)) <= 1e-6
    assert sol.intercept == pytest.approx(float(pi @ y / pi.sum()), abs=1e-6)


@given(SEEDS)
@settings(max_examples=40)
def test_solution_matches_bordered_normal_equations(seed):
    p = random_problem(seed)
    sol = solve_weighted_ridge(p)
    w, b = ridge_bordered(p.design, p.responses, p.sample_weights, p.lam)
    assert np.allclose(sol.w, w, atol=1e-9)
    assert sol.intercept == pytest.approx(b, abs=1e-9)


@given(SEEDS)
@settings(max_examples=40)
def test_no_intercept_solution_matches_direct_normal_equations(seed):
    p = random_problem(seed, fit_intercept=False)
    sol = solve_weighted_ridge(p)
    z, y, pi = p.design, p.responses, p.sample_weights
    w = np.linalg.solve(z.T @ (pi[:, None] * z) + p.lam * np.eye(5), z.T @ (pi * y))
    assert np.allclose(sol.w, w, atol=1e-9)
    assert sol.intercept == 0.0


@given(SEEDS)
@settings(max_examples=40)
def test_stationarity_of_the_weighted_objective(seed):
    p = random_problem(seed)
    sol = solve_weighted_ridge(p)
    z, y, pi = p.design, p.responses, p.sample_weights
    resid = y - sol.intercept - z @ sol.w
    grad_w = -2.0 * z.T @ (pi * resid) + 2.0 * p.lam * sol.w
    grad_b = -2.0 * float(pi @ resid)
    scale = 1.0 + np.max(np.abs(z.T @ (pi * y)))
    assert max(np.max(np.abs(grad_w)), abs(grad_b)) <= 1e-8 * scale


def test_singular_system_at_lambda_zero_with_duplicate_rows():
    z = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    with pytest.raises(SingularSystem):
        solve_weighted_ridge(RidgeProblem(z, np.array([1.0, 1.0]), np.ones(2), 0.0))


def test_zero_sample_weights_are_rejected_with_a_hint():
    with pytest.raises(SingularSystem, match="underflow"):
        RidgeProblem(np.ones((2, 1)), np.ones(2), np.array([1.0, 0.0]), 1.0)


@given(SEEDS, st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=40)
def test_monotone_shrinkage_in_lambda(seed, lam_a, lam_b):
    lo, hi = sorted((lam_a, lam_b))
    base = random_problem(seed, lam=lo)
    bigger = RidgeProblem(base.design, base.responses, base.sample_weights, hi)
    norm_lo = float(np.linalg.norm(solve_weighted_ridge(base).w))
    norm_hi = float(np.linalg.norm(solve_weighted_ridge(bigger).w))
    assert norm_hi <= norm_lo + 1e-12


@given(SEEDS)
@settings(max_examples=25)
def test_permuting_columns_permutes_w(seed):
    p = random_problem(seed)
    perm = np.random.default_rng(seed + 1).permutation(5)
    permuted = RidgeProblem(p.design[:, perm], p.responses, p.sample_weights, p.lam)
    assert np.allclose(solve_weighted_ridge(permuted).w,
                       solve_weighted_ridge(p).w[perm], atol=1e-10)


@given(SEEDS, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=25)
def test_joint_weight_and_lambda_rescaling_is_invariant(seed, c):
    p = random_problem(seed)
    scaled = RidgeProblem(p.design, p.responses, c * p.sample_weights, c * p.lam)
    a = solve_weighted_ridge(p)
    b = solve_weighted_ridge(scaled)
    assert np.allclose(a.w, b.w, atol=1e-10)
    assert a.intercept == pytest.approx(b.intercept, abs=1e-10)


# ---------------------------------------------------------------------------
# R^2


def test_r_squared_is_one_for_perfect_linear_data():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(25, 3))
    y = z @ np.array([1.0, -1.0, 2.0]) + 0.7
    p = RidgeProblem(z, y, np.ones(25), 0.0)
    sol = solve_weighted_ridge(p)
    assert sol.r2 == pytest.approx(1.0, abs=1e-12)
    assert r_squared(p, sol) == pytest.approx(1.0, abs=1e-12)


def test_r_squared_is_zero_when_prediction_is_the_weighted_mean():
    rng = np.random.default_rng(4)
    y = rng.normal(size=10)
    pi = rng.uniform(0.5, 2.0, size=10)
    p = RidgeProblem(rng.normal(size=(10, 2)), y, pi, 1.0)
    mean = float(pi @ y / pi.sum())
    sol = RidgeSolution(np.zeros(2), mean, 0.0)
    assert r_squared(p, sol) == pytest.approx(0.0, abs=1e-12)


def test_weighted_r_squared_matches_the_direct_formula():
    z = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 1.5])
    pi = np.array([1.0, 2.0, 0.5])
    p = RidgeProblem(z, y, pi, 0.1)
    sol = solve_weighted_ridge(p)
    yhat = z[:, 0] * sol.w[0] + sol.intercept
    ybar = pi @ y / pi.sum()
    direct = 1.0 - (pi @ (y - yhat) ** 2) / (pi @ (y - ybar) ** 2)
    assert sol.r2 == pytest.approx(direct, abs=1e-10)


def test_degenerate_variance_flag_on_constant_responses_with_residual():
    # no intercept and huge lambda: prediction ~ 0 but y is constant 1
    p = RidgeProblem(np.ones((5, 1)), np.ones(5), np.ones(5), 1e9,
                     fit_intercept=False)
    sol = solve_weighted_ridge(p)
    assert sol.r2 == 0.0
    assert sol.degenerate_variance


# ---------------------------------------------------------------------------
# analytic moments


def test_binomial_moments_approach_fair_coin_as_sigma_grows():
    a1, a2 = analytic_moments(Binomial(6, 1e6))
    assert a1 == pytest.approx(0.5, abs=1e-9)
    assert a2 == pytest.approx(0.25, abs=1e-9)


def test_weighted_uniform_moments_approach_fair_coin_as_sigma_grows():
    a1, a2 = analytic_moments(UniformBinary(2), ExpKernel(1e6))
    assert a1 == pytest.approx(0.5, abs=1e-9)
    assert a2 == pytest.approx(0.25, abs=1e-9)


def test_binomial_moments_at_sigma_one_match_monte_carlo():
    a1, a2 = analytic_moments(Binomial(2, 1.0))
    assert a1 == pytest.approx(0.731059, abs=1e-6)
    assert a2 == pytest.approx(0.534447, abs=1e-6)
    masks = draw(Binomial(2, 1.0), 400000, 9)
    m1 = masks[:, 0].mean()
    m2 = (masks[:, 0] * masks[:, 1]).mean()
    assert abs(m1 - a1) < 3.0 * masks[:, 0].std() / math.sqrt(len(masks))
    assert abs(m2 - a2) < 3.0 * (masks[:, 0] * masks[:, 1]).std() / math.sqrt(len(masks))


def test_weighted_uniform_moments_match_monte_carlo():
    from localex.sampling import batch_weights

    d, sigma = 6, 1.0
    a1, a2 = analytic_moments(UniformBinary(d), ExpKernel(sigma))
    masks = draw(UniformBinary(d), 400000, 21)
    w = batch_weights(ExpKernel(sigma), masks)
    s1 = w * masks[:, 0]
    s2 = w * masks[:, 0] * masks[:, 1]
    assert abs(s1.mean() - a1) < 3.0 * s1.std() / math.sqrt(len(masks))
    assert abs(s2.mean() - a2) < 3.0 * s2.std() / math.sqrt(len(masks))


def test_gaussian_moments_are_variance_and_zero():
    assert analytic_moments(Gaussian(3, 0.5)) == (0.25, 0.0)


def test_unsupported_moment_combinations_raise():
    with pytest.raises(UnsupportedCombination):
        analytic_moments(Gaussian(3, 1.0), ExpKernel(1.0))
    with pytest.raises(UnsupportedCombination):
        analytic_moments(Laplace(3, 1.0))
    with pytest.raises(UnsupportedCombination):
        analytic_moments(UniformBinary(3), Unit())


# ---------------------------------------------------------------------------
# Sherman-Morrison structure


def test_sherman_morrison_frozen_2x2_case():
    beta1, beta2 = sherman_morrison_inverse(2.0, 1.0, 0.0, 2)
    assert beta1 == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert beta2 == pytest.approx(-1.0 / 3.0, rel=1e-12)


def test_sherman_morrison_diagonal_case():
    beta1, beta2 = sherman_morrison_inverse(1.7, 0.0, 0.3, 5)
    assert beta1 == pytest.approx(1.0 / 2.0, rel=1e-12)
    assert beta2 == 0.0


@given(SEEDS, st.integers(min_value=2, max_value=50))
@settings(max_examples=50)
def test_sherman_morrison_matches_dense_inversion(seed, d):
    rng = np.random.default_rng(seed)
    alpha1 = rng.uniform(0.1, 3.0)
    alpha2 = rng.uniform(-alpha1 / d, alpha1)  # keeps both eigenvalues positive
    lam = rng.uniform(0.0, 2.0)
    model = CovarianceModel.build(alpha1, alpha2, lam, d)
    dense = dense_sigma_inverse(alpha1, alpha2, lam, d)
    assert np.max(np.abs(model.inverse_matrix() - dense)) < 1e-10
    product = model.sigma_matrix() @ model.inverse_matrix()
    assert np.max(np.abs(product - np.eye(d))) < 1e-10


def test_sherman_morrison_rejects_indefinite_parameters():
    with pytest.raises(NotPositiveDefinite):
        sherman_morrison_inverse(1.0, 2.0, 0.0, 3)  # alpha1 + lam - alpha2 < 0
    with pytest.raises(NotPositiveDefinite):
        sherman_morrison_inverse(1.0, -1.0, 0.0, 3)  # trace direction negative
