"""End-to-end acceptance checks, one test per claim the package stands on.

Each test states its tolerance inline and asserts its own wall-clock budget.
Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Random legs run at seeds fixed here; the analytic expectations do
not depend on them.
"""

import time

import numpy as np
import pytest

from conftest import asset, smoothgrad
from localex.errors import SingularSystem
from localex.explain import (
    ExplainRequest,
    GlimeBinomial,
    GlimeGauss,
    KernelShap,
    Lime,
    explain,
)
from localex.feature_space import (
    Reference,
    grid_segment,
    mean_reference,
    singleton_segments,
)
from localex.harness import ExperimentConfig, Grid, Metrics, emit, load_input, run_stability
from localex.metrics import local_fidelity
from localex.models import Linear, Quadratic, evaluate, load_model
from localex.sampling import (
    Binomial,
    ExpKernel,
    UniformBinary,
    batch_weights,
    bernoulli_p,
    binomial_pmf,
    draw,
    expected_weight_uniform,
)
from localex.solver import RidgeProblem, solve_weighted_ridge
from oracles import gradient, infinite_limit_linear_binomial


class budget:
    """Fail the criterion if its work exceeds the stated wall-clock bound."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"runtime {elapsed:.1f}s exceeds the {self.seconds}s budget")


def test_criterion_01_rank_one_inverse_matches_dense_inversion():
    with budget(5):
        rng = np.random.default_rng(11)
        from oracles import sherman_morrison_inverse

        for d in range(2, 51):
            for _ in range(100):
                a1 = rng.uniform(0.05, 2.0)
                lam = rng.uniform(0.0, 1.0)
                # keep both eigenvalues of aI + b * ones positive
                a2 = rng.uniform(-(a1 + lam) / d * 0.9, (a1 + lam) * 0.9)
                b1, b2 = sherman_morrison_inverse(a1, a2, lam, d)
                sigma = np.full((d, d), a2) + np.eye(d) * (a1 + lam - a2)
                inv = np.full((d, d), b2) + np.eye(d) * (b1 - b2)
                assert np.max(np.abs(sigma @ inv - np.eye(d))) <= 1e-10
                assert np.max(np.abs(inv - np.linalg.inv(sigma))) <= 1e-10


def test_criterion_02_binomial_mask_law():
    with budget(10):
        d, n = 10, 100_000
        for sigma in (0.5, 1.0, 5.0):
            masks = draw(Binomial(d, sigma), n, seed=0)
            counts = masks.sum(axis=1).astype(int)
            empirical = np.bincount(counts, minlength=d + 1) / n
            pmf = np.array([binomial_pmf(d, sigma, k) for k in range(d + 1)])
            assert np.max(np.abs(empirical - pmf)) <= 0.01
            p = bernoulli_p(sigma)
            three_se = 3 * np.sqrt(p * (1 - p) / n)
            assert np.max(np.abs(masks.mean(axis=0) - p)) <= three_se


def test_criterion_03_small_sigma_weights_and_their_mean():
    with budget(10):
        d, sigma = 20, 0.25
        near = np.ones(d)
        near[0] = 0.0  # one dropped feature
        assert batch_weights(ExpKernel(sigma), near[None, :])[0] == pytest.approx(
            np.exp(-16.0), rel=1e-12)
        half = np.zeros(d)
        half[: d // 2] = 1.0
        assert batch_weights(ExpKernel(sigma), half[None, :])[0] == pytest.approx(
            np.exp(-8.0 * d), rel=1e-12)

        n = 1_000_000
        masks = draw(UniformBinary(d), n, seed=0)
        mean_w = batch_weights(ExpKernel(sigma), masks).mean()
        expected = expected_weight_uniform(d, sigma)
        q = np.exp(-1.0 / sigma**2)
        second_moment = ((1 + q * q) / 2) ** d
        three_se = 3 * np.sqrt((second_moment - expected**2) / n)
        assert abs(mean_w - expected) <= three_se


def test_criterion_04_binomial_recovers_the_linear_oracle_on_an_image():
    with budget(60):
        model = load_model(asset("linear_8x8.json"))
        x, shape = load_input(asset("input_8x8.json"))
        seg = grid_segment(*shape, 4, 4)
        ref = mean_reference(x, seg)
        got = explain(ExplainRequest(
            model, x, seg, GlimeBinomial(sigma=0.5), n=200_000, seed=0,
            lam=1.0, reference=ref))
        w, intercept = infinite_limit_linear_binomial(
            model.coefficients, model.bias, x, ref, seg)
        assert np.max(np.abs(got.w - w)) <= 0.01
        assert abs(got.intercept - intercept) <= 0.01


def test_criterion_05_weighted_and_weight_free_routes_share_a_limit():
    with budget(60):
        model = load_model(asset("quadratic_10.json"))
        x, _ = load_input(asset("input_10.json"))
        seg = singleton_segments(10)
        ref = Reference(np.zeros(10))
        mses = []
        for n in (1_000, 10_000, 100_000):
            lime = explain(ExplainRequest(
                model, x, seg, Lime(sigma=1.0), n=n, seed=0, lam=0.0,
                reference=ref))
            binom = explain(ExplainRequest(
                model, x, seg, GlimeBinomial(sigma=1.0), n=n, seed=0, lam=0.0,
                reference=ref))
            mses.append(float(np.mean((lime.w - binom.w) ** 2)))
        assert mses[2] < mses[1] < mses[0]
        assert mses[-1] <= 1e-3
        assert float(np.corrcoef(lime.w, binom.w)[0, 1]) >= 0.99


def test_criterion_06_weight_free_masks_stabilize_small_sigma_rankings():
    with budget(120):
        config = ExperimentConfig(
            model=asset("linear_8x8.json"),
            input=asset("input_8x8.json"),
            methods=({"method": "Lime"},
                            {"method": "Lime", "unit_weights": True},
                            {"method": "GlimeBinomial"}),
            sigmas=(0.25,), sample_sizes=(256,), lambdas=(1.0,),
            seeds=tuple(range(10)), segmentation=Grid(4, 4), metrics=Metrics(k=5))
        rows = {r["method"]: r for r in run_stability(config)}
        assert all(r["error"] == "" for r in rows.values())
        binom = rows["GlimeBinomial"]["mean_jaccard"]
        lime = rows["Lime"]["mean_jaccard"]
        unweighted = rows["LimeUnweighted"]["mean_jaccard"]
        assert binom >= 0.9
        assert binom - lime >= 0.2
        assert unweighted > lime  # dropping pi alone removes the collapse


def test_criterion_07_ridge_penalty_dominates_vanishing_weights():
    with budget(30):
        rng = np.random.default_rng(42)
        c = rng.normal(size=20)
        x = rng.normal(size=20)
        model = Linear(c, 0.0)
        seg = singleton_segments(20)
        ref = Reference(np.zeros(20))
        oracle, _ = infinite_limit_linear_binomial(c, 0.0, x, ref, seg)
        oracle_norm = float(np.linalg.norm(oracle))
        assert oracle_norm > 1.0

        lime = explain(ExplainRequest(
            model, x, seg, Lime(sigma=0.25), n=256, seed=0, lam=1.0,
            reference=ref))
        assert np.linalg.norm(lime.w) <= 0.01 * oracle_norm

        # Same n and lambda. The Binomial route needs sigma = 1 here: at
        # sigma = 0.25 its keep-probability is 1 - 1.1e-7, so a 256-row
        # design is all ones w.p. ~0.9994 and the centered system is zero.
        binom = explain(ExplainRequest(
            model, x, seg, GlimeBinomial(sigma=1.0), n=256, seed=0, lam=1.0,
            reference=ref))
        assert np.linalg.norm(binom.w) >= 0.9 * oracle_norm


def test_criterion_08_exact_coalition_mode_recovers_shapley_values():
    with budget(10):
        from oracles import shapley_bruteforce

        d = 8
        rng = np.random.default_rng(3)
        interaction = np.zeros((d, d))
        interaction[1, 4] = interaction[4, 1] = 0.35
        model = Quadratic(interaction, rng.normal(size=d) * 0.6, 0.3)
        x = rng.normal(size=d)
        seg = singleton_segments(d)
        ref = Reference(np.zeros(d))
        got = explain(ExplainRequest(
            model, x, seg, KernelShap(exact=True), n=1, seed=0, lam=0.0,
            reference=ref))

        def value(mask):
            z = np.where(np.asarray(mask) == 1, x, 0.0)
            return float(evaluate(model, z[None, :])[0])

        expected = shapley_bruteforce(value, d)
        assert np.max(np.abs(got.w - expected)) <= 1e-6


def test_criterion_09_smoothed_gradients_match_analytic_gradients():
    with budget(60):
        # linear: the estimator is unbiased for the coefficients at any sigma
        rng = np.random.default_rng(5)
        c = rng.normal(size=8) * 0.4
        x8 = rng.normal(size=8) * 0.3
        w = smoothgrad(Linear(c, 0.2), x8, sigma=1.0, n=50_000, seed=1)
        assert np.max(np.abs(w - c)) <= 0.02

        # quadratic f(z) = z1^2 + z2^2: grad at [1, 0] is [2, 0]
        quad = Quadratic(np.eye(2), np.zeros(2), 0.0)
        w = smoothgrad(quad, np.array([1.0, 0.0]), sigma=0.1, n=100_000, seed=0)
        assert np.max(np.abs(w - np.array([2.0, 0.0]))) <= 0.05

        # tanh network: shrinking sigma shrinks the smoothing bias. Probe at
        # a root of f so Monte Carlo noise (which scales with |f|/sigma) does
        # not swamp the bias term at small sigma.
        model = load_model(asset("mlp_small.json"))
        x0, _ = load_input(asset("input_8.json"))
        points = np.random.default_rng(0).normal(size=(2000, 8))
        lo = points[int(np.argmin(evaluate(model, points)))]
        hi = x0
        f_hi = float(evaluate(model, hi[None, :])[0])
        for _ in range(200):
            mid = 0.5 * (hi + lo)
            if (float(evaluate(model, mid[None, :])[0]) > 0) == (f_hi > 0):
                hi = mid
            else:
                lo = mid
        probe = 0.5 * (hi + lo)
        g = gradient(model, probe)
        errors = [
            float(np.max(np.abs(
                smoothgrad(model, probe, sigma, n=200_000, seed=0) - g)))
            for sigma in (0.5, 0.1, 0.02)
        ]
        assert errors[2] < errors[1] < errors[0]


def test_criterion_10_matched_continuous_sampling_improves_fidelity():
    with budget(60):
        model = load_model(asset("quadratic_10.json"))
        x, _ = load_input(asset("input_10.json"))
        seg = singleton_segments(10)
        gauss = explain(ExplainRequest(
            model, x, seg, GlimeGauss(sigma=0.5), n=4096, seed=0, lam=1.0))
        lime = explain(ExplainRequest(
            model, x, seg, Lime(sigma=0.5), n=4096, seed=0, lam=1.0,
            reference=Reference(np.zeros(10))))
        fid = {
            e.method.__class__.__name__: local_fidelity(
                model, x, [e], seg, epsilon=0.5, norm="l2", m=20_000, seed=12345
            )[0]
            for e in (gauss, lime)
        }
        assert fid["GlimeGauss"] >= fid["Lime"]

        # the continuous route never reads the reference; the mask route does
        other = Reference(np.full(10, 0.7))
        gauss_other = explain(ExplainRequest(
            model, x, seg, GlimeGauss(sigma=0.5), n=4096, seed=0, lam=1.0,
            reference=other))
        lime_other = explain(ExplainRequest(
            model, x, seg, Lime(sigma=0.5), n=4096, seed=0, lam=1.0,
            reference=other))
        assert np.array_equal(gauss.w, gauss_other.w)
        assert gauss.intercept == gauss_other.intercept
        assert not np.array_equal(lime.w, lime_other.w)


def test_criterion_11_solver_invariances_and_failure_modes():
    with budget(5):
        rng = np.random.default_rng(17)
        Z = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        pi = rng.uniform(0.2, 2.0, size=40)

        base_w, base_b, _ = solve_weighted_ridge(RidgeProblem(Z, y, pi, 0.7))
        scaled_w, scaled_b, _ = solve_weighted_ridge(RidgeProblem(Z, y, pi * 3.5, 0.7 * 3.5))
        assert np.max(np.abs(base_w - scaled_w)) <= 1e-10
        assert abs(base_b - scaled_b) <= 1e-10

        norms = [
            float(np.linalg.norm(solve_weighted_ridge(
                RidgeProblem(Z, y, pi, lam))[0]))
            for lam in (0.0, 1.0, 10.0, 100.0)
        ]
        assert norms[0] >= norms[1] >= norms[2] >= norms[3]
        assert norms[3] < norms[0]

        dup = np.tile(rng.normal(size=(1, 5)), (3, 1))  # n=3 < d=5, rank 1
        with pytest.raises(SingularSystem):
            solve_weighted_ridge(RidgeProblem(dup, rng.normal(size=3),
                                              np.ones(3), 0.0))


def test_criterion_12_identical_configs_reproduce_byte_identical_outputs(tmp_path):
    config = ExperimentConfig(
        model=asset("linear_8x8.json"),
        input=asset("input_8x8.json"),
        methods=({"method": "Lime"}, {"method": "GlimeBinomial"}),
        sigmas=(0.5, 1.0), sample_sizes=(128,), lambdas=(1.0,),
        seeds=(0, 1, 2), segmentation=Grid(4, 4), metrics=Metrics(k=5))
    for fmt in ("csv", "json"):
        first = tmp_path / f"first.{fmt}"
        second = tmp_path / f"second.{fmt}"
        emit(run_stability(config), fmt, str(first))
        emit(run_stability(config), fmt, str(second))
        assert first.read_bytes() == second.read_bytes()
