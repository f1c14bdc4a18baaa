"""Independent reference implementations used to cross-check the package, and
the closed forms no command needs: model gradients, the linear-model limits of
the explainers, the design moments and their rank-one inverse.

Everything here deliberately takes a different route than the library code:
the ridge solve goes through the full bordered normal equations instead of
weighted centering, Shapley values come from subset enumeration, pmfs and
kernel weights from direct arithmetic instead of log-space.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from localex.explain import (ExplainRequest, Explanation, GlimeBinomial, Lime, explain,
                             method_from_json)
from localex.feature_space import (Reference, Segmentation, feature_offsets,
                                   reconstruct_binary, reconstruct_continuous)
from localex.harness import _BALL_STREAM, ExperimentConfig, RunContext, build_context
from localex.metrics import explanation_distance, local_fidelity, sample_ball, top_k_jaccard
from localex.models import Linear, ModelSpec, Quadratic, evaluate
from localex.sampling import (Binomial, ExpKernel, Gaussian, UniformBinary, Unit,
                              batch_weights, draw, splitmix64, substream_seed)
from localex.solver import RidgeProblem, solve_weighted_ridge


def ridge_bordered(
    design: np.ndarray,
    responses: np.ndarray,
    weights: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, float]:
    """Solve min_w,b sum_i pi_i (y_i - b - z_i w)^2 + lam ||w||^2 directly.

    Builds the (d+1) x (d+1) normal equations over the intercept-augmented
    design and solves them with a dense LU factorization.
    """
    z = np.asarray(design, dtype=np.float64)
    y = np.asarray(responses, dtype=np.float64)
    pi = np.asarray(weights, dtype=np.float64)
    n, d = z.shape
    x = np.hstack([np.ones((n, 1)), z])
    penalty = np.diag(np.r_[0.0, np.full(d, lam)])
    lhs = x.T @ (pi[:, None] * x) + penalty
    rhs = x.T @ (pi * y)
    theta = np.linalg.solve(lhs, rhs)
    return theta[1:], float(theta[0])


def shapley_bruteforce(value: Callable[[np.ndarray], float], d: int) -> np.ndarray:
    """Shapley values by enumerating all 2^d coalitions of the mask game."""
    phi = np.zeros(d)
    fact = math.factorial
    for i in range(d):
        others = [j for j in range(d) if j != i]
        for size in range(d):
            coeff = fact(size) * fact(d - size - 1) / fact(d)
            for subset in itertools.combinations(others, size):
                mask = np.zeros(d)
                mask[list(subset)] = 1.0
                without = value(mask)
                mask[i] = 1.0
                phi[i] += coeff * (value(mask) - without)
    return phi


def gradient(model: ModelSpec, point: np.ndarray) -> np.ndarray:
    """The model's gradient at one point: analytic for Linear and Quadratic, and for
    an Mlp central differences of step 1e-5."""
    x = np.asarray(point, dtype=np.float64)
    if isinstance(model, Linear):
        return model.coefficients.copy()
    if isinstance(model, Quadratic):
        return 2.0 * (model.matrix @ x) + model.coefficients
    return central_difference_gradient(lambda p: evaluate(model, p[None])[0], x, h=1e-5)


def central_difference_gradient(
    fn: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (fn(hi) - fn(lo)) / (2.0 * h)
    return g


def coalitions_direct(d: int, n: int, seed: int, exact: bool) -> np.ndarray:
    """KernelSHAP's coalition set, bit j of a mask being feature j: every mask
    with 1 <= k <= d-1 in code order (exact), or the first n fair-coin masks
    that are neither empty nor full, drawn max(n, 256) per round under the
    round's seed splitmix64(seed ^ round)."""
    if exact:
        return np.array([[(code >> j) & 1 for j in range(d)]
                         for code in range(1, 2**d - 1)], dtype=np.float64)
    kept: list[np.ndarray] = []
    round_idx = 0
    while len(kept) < n:
        rng = np.random.default_rng(splitmix64(seed ^ round_idx))
        for mask in rng.integers(0, 2, size=(max(n, 256), d)):
            if 0 < mask.sum() < d:
                kept.append(mask.astype(np.float64))
        round_idx += 1
    return np.array(kept[:n])


def smoothgrad_direct(model: ModelSpec, x: np.ndarray, sigma: float, n: int,
                      seed: int) -> np.ndarray:
    """SmoothGrad as its defining sum: (1/sigma^2) * (1/n) * sum_i z_i f(x + z_i)
    over n Gaussian offsets z_i, each coordinate summed exactly (fsum)."""
    z = np.random.default_rng(seed).normal(0.0, sigma, size=(n, x.size))
    f = evaluate(model, x + z)
    return np.array([math.fsum(z[:, j] * f) for j in range(x.size)]) / (n * sigma**2)


def lift_whole(req: ExplainRequest) -> tuple[np.ndarray, np.ndarray]:
    """An explain's samples and the raw points they lift to, all n at once."""
    seg = req.segmentation
    design = draw(req.method.sampler(seg.d)[0], req.n, req.seed)
    if req.method.binary:
        return design, reconstruct_binary(req.x, req.reference, seg, design)
    return design, reconstruct_continuous(req.x, seg, design)


def lift_direct(x: np.ndarray, seg: Segmentation, design: np.ndarray,
                reference: np.ndarray | None = None) -> np.ndarray:
    """The n x D lift of an n x d design, one raw column at a time: entry (j, i)
    is x_i + z_j,s(i) for offsets, or x_i where mask bit z_j,s(i) is 1 and r_i
    where it is 0 (reference given), s(i) being raw index i's segment. The
    result is row-major."""
    n = design.shape[0]
    out = np.empty((n, x.size))
    for i, s in enumerate(seg.assignment):
        col = design[:, s]
        if reference is None:
            out[:, i] = x[i] + col
        else:
            out[:, i] = np.where(col == 1.0, x[i], reference[i])
    return out


def _fit_whole_lift(req: ExplainRequest, respond: Callable[[np.ndarray], np.ndarray]
                    ) -> tuple[np.ndarray, float, float | None]:
    """A ridge method's (w, intercept, R^2) with every sample lifted at once and
    respond(points) giving the responses to all n lifted points."""
    method = req.method
    design, points = lift_whole(req)
    lam = req.lam if method.fixed_lam is None else method.fixed_lam
    kernel = method.sampler(req.segmentation.d)[1]
    return solve_weighted_ridge(RidgeProblem(design, respond(points),
                                             batch_weights(kernel, design), lam))


def explain_whole(req: ExplainRequest) -> tuple[np.ndarray, float, float | None]:
    """The fit with the whole lift given to one forward call, not lifted and
    evaluated in blocks."""
    return _fit_whole_lift(req, req.model.forward)


def explain_every_row(req: ExplainRequest) -> tuple[np.ndarray, float, float | None]:
    """The fit with every lifted sample evaluated through evaluate, repeated
    masks included, not once per distinct mask."""
    return _fit_whole_lift(req, lambda points: evaluate(req.model, points))


def distinct_rows_direct(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a matrix in the order they first occur, found by
    comparing each row's values with those of the rows kept so far."""
    kept: dict[tuple, None] = {}
    for row in rows.tolist():
        kept.setdefault(tuple(row))
    return np.array(list(kept), dtype=rows.dtype).reshape(-1, rows.shape[1])


def sample_ball_direct(x: np.ndarray, epsilon: float, norm: str, m: int,
                       seed: int) -> np.ndarray:
    """A ball of m points drawn whole from numpy's samplers: uniform(-epsilon,
    epsilon) per coordinate (linf), or normal (l2) and Laplace (l1) draws
    normalized to the unit sphere and scaled by epsilon * u^(1/D)."""
    rng = np.random.default_rng(seed)
    if norm == "linf":
        return x + rng.uniform(-epsilon, epsilon, size=(m, x.size))
    g = rng.normal(size=(m, x.size)) if norm == "l2" else rng.laplace(size=(m, x.size))
    g /= np.linalg.norm(g, ord=2 if norm == "l2" else 1, axis=1, keepdims=True)
    return x + g * (epsilon * rng.random(m) ** (1.0 / x.size))[:, None]


def unit_ball_direct(norm: str, m: int, dim: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray | None]:
    """unit_ball's (directions, radii) with every row normalised at once by
    np.linalg.norm (l2) or np.abs(...).sum (l1); linf keeps its uniforms."""
    rng = np.random.default_rng(seed)
    if norm == "linf":
        return rng.random((m, dim)), None
    if norm == "l2":
        g = rng.normal(size=(m, dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
    else:
        g = rng.laplace(size=(m, dim))
        g /= np.abs(g).sum(axis=1, keepdims=True)
    return g, rng.random(m) ** (1.0 / dim)


def local_fidelity_whole(model: ModelSpec, x: np.ndarray, exp: Explanation,
                         seg: Segmentation, epsilon: float, norm: str, m: int,
                         seed: int) -> float:
    """local_fidelity's score of one explanation, the whole ball projected and
    given to one forward call."""
    points = sample_ball(x, epsilon, norm, m, seed)
    offsets = feature_offsets(points - x, seg)
    surrogate = exp.intercept + offsets @ exp.w
    return 1.0 / (1.0 + float(np.mean((model.forward(points) - surrogate) ** 2)))


def count_pmf_direct(d: int, p: float, k: int) -> float:
    return math.comb(d, k) * p**k * (1.0 - p) ** (d - k)


def lime_weight_direct(d: int, sigma: float, k: int) -> float:
    return math.exp((k - d) / sigma**2)


def shap_weight_direct(d: int, k: int) -> float:
    return (d - 1) / (math.comb(d, k) * k * (d - k))


def r_squared(problem: RidgeProblem, w: np.ndarray, intercept: float) -> float:
    """Weighted R^2 of a fit (w, intercept) on its problem's samples, by the direct
    formula."""
    y, pi = problem.responses, problem.sample_weights
    yhat = problem.design @ w + intercept
    ybar = pi @ y / pi.sum()
    return float(1.0 - (pi @ (y - yhat) ** 2) / (pi @ (y - ybar) ** 2))


def infinite_limit_linear_binomial(c: np.ndarray, bias: float, x: np.ndarray,
                                   reference: Reference, seg: Segmentation
                                   ) -> tuple[np.ndarray, float]:
    """Limit of Lime/GlimeBinomial on a linear model: w_j = sum_seg c_i (x_i - r_i),
    with intercept f(r). The limit does not depend on sigma; the kernel width only
    changes the finite-sample convergence rate."""
    c, x, r = np.asarray(c, dtype=np.float64), np.asarray(x, dtype=np.float64), reference.values
    w = np.bincount(seg.assignment, weights=c * (x - r), minlength=seg.d)
    return w, float(bias + c @ r)


def infinite_limit_linear_gauss(c: np.ndarray, bias: float, x: np.ndarray, seg: Segmentation
                                ) -> tuple[np.ndarray, float]:
    """Limit of the additive continuous variants on a linear model. The broadcast
    lift makes the response exactly linear in the offsets, so the least-squares
    limit is w_j = sum_seg c_i with intercept f(x)."""
    c, x = np.asarray(c, dtype=np.float64), np.asarray(x, dtype=np.float64)
    return np.bincount(seg.assignment, weights=c, minlength=seg.d), float(bias + c @ x)


def analytic_moments(dist: UniformBinary | Binomial | Gaussian,
                     weighting: ExpKernel | Unit = Unit()) -> tuple[float, float]:
    """Closed-form (alpha1, alpha2) = (E[pi z_i], E[pi z_i z_j]) of a design: fair-coin
    masks under the exponential kernel, binomial masks unweighted, or Gaussian offsets
    unweighted. Any other pair is a ValueError."""
    if isinstance(dist, UniformBinary) and isinstance(weighting, ExpKernel):
        d = dist.d
        log_base = math.log1p(math.exp(-1.0 / weighting.sigma**2))
        log2 = math.log(2.0)
        return (math.exp((d - 1) * log_base - d * log2),
                math.exp((d - 2) * log_base - d * log2))
    if isinstance(dist, Binomial) and isinstance(weighting, Unit):
        return dist.p, dist.p * dist.p
    if isinstance(dist, Gaussian) and isinstance(weighting, Unit):
        return dist.sigma**2, 0.0
    raise ValueError(f"no closed-form moments for {type(dist).__name__} with "
                     f"{type(weighting).__name__}")


def sherman_morrison_inverse(alpha1: float, alpha2: float, lam: float, d: int
                             ) -> tuple[float, float]:
    """Inverse parameters of (a1 + lam - a2) I + a2 11^T as (beta1, beta2): the
    inverse is (beta1 - beta2) I + beta2 11^T. A ValueError unless the matrix is
    positive definite."""
    a = alpha1 + lam - alpha2
    t = alpha1 + lam + (d - 1) * alpha2
    if not (a > 0 and t > 0):
        raise ValueError(f"Sigma + lambda*I is not positive definite: "
                         f"alpha1+lam-alpha2={a}, alpha1+lam+(d-1)*alpha2={t}")
    denom = a * t
    return (alpha1 + lam + (d - 2) * alpha2) / denom, -alpha2 / denom


@dataclass(frozen=True)
class CovarianceModel:
    """Analytic covariance structure (alpha1, alpha2, lam, d) with its inverse."""

    alpha1: float
    alpha2: float
    lam: float
    d: int
    beta1: float = field(default=float("nan"))
    beta2: float = field(default=float("nan"))

    @classmethod
    def build(cls, alpha1: float, alpha2: float, lam: float, d: int) -> "CovarianceModel":
        beta1, beta2 = sherman_morrison_inverse(alpha1, alpha2, lam, d)
        return cls(alpha1, alpha2, lam, d, beta1, beta2)

    def sigma_matrix(self) -> np.ndarray:
        """Dense (alpha1 + lam - alpha2) I + alpha2 11^T."""
        return (self.alpha1 + self.lam - self.alpha2) * np.eye(self.d) + (
            self.alpha2 * np.ones((self.d, self.d))
        )

    def inverse_matrix(self) -> np.ndarray:
        """Dense (beta1 - beta2) I + beta2 11^T."""
        return (self.beta1 - self.beta2) * np.eye(self.d) + (
            self.beta2 * np.ones((self.d, self.d))
        )


def dense_sigma_inverse(alpha1: float, alpha2: float, lam: float, d: int) -> np.ndarray:
    sigma = (alpha1 + lam - alpha2) * np.eye(d) + alpha2 * np.ones((d, d))
    return np.linalg.inv(sigma)


def average_ranks_direct(a) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their positions."""
    a = np.asarray(a)
    return np.array([1 + np.sum(a < v) + (np.sum(a == v) - 1) / 2 for v in a])


def jaccard_direct(a, b) -> float:
    sa, sb = set(a), set(b)
    return len(sa & sb) / len(sa | sb)


def _explain_direct(ctx: RunContext, method, n: int, lam: float, seed: int):
    return explain(ExplainRequest(model=ctx.model, x=ctx.x, segmentation=ctx.segmentation,
                                  method=method, n=n, seed=seed, lam=lam,
                                  reference=ctx.reference))


def _failure_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def stability_rows_direct(config: ExperimentConfig) -> list[dict]:
    """The stability table by the plain nested loop, one try per cell."""
    ctx = build_context(config)
    rows = []
    for entry, sigma, lam, n in itertools.product(
        config.methods, config.sigmas, config.lambdas, config.sample_sizes
    ):
        method = method_from_json({**entry, "sigma": sigma})
        row = {"method": method.label, "sigma": sigma, "lambda": lam, "n": n,
               "mean_jaccard": None, "std": None, "error": ""}
        try:
            exps = [_explain_direct(ctx, method, n, lam, s) for s in config.seeds]
            row.update(top_k_jaccard(exps, config.metrics.k))
        except Exception as exc:
            row["error"] = _failure_text(exc)
        rows.append(row)
    return rows


def convergence_rows_direct(config: ExperimentConfig) -> list[dict]:
    """The convergence table by the plain nested loop, one try per cell; a
    group's MSE is monotone when every cell succeeded and it strictly falls."""
    ctx = build_context(config)
    seed = config.seeds[0]
    rows = []
    for sigma, lam in itertools.product(config.sigmas, config.lambdas):
        group = []
        for n in config.sample_sizes:
            row = {"sigma": sigma, "lambda": lam, "n": n, "mse": None, "mae": None,
                   "pearson": None, "spearman": None, "mse_monotone": None, "error": ""}
            try:
                row.update(explanation_distance(
                    _explain_direct(ctx, Lime(sigma), n, lam, seed),
                    _explain_direct(ctx, GlimeBinomial(sigma), n, lam, seed)))
            except Exception as exc:
                row["error"] = _failure_text(exc)
            group.append(row)
        mses = [row["mse"] for row in group]
        monotone = None not in mses and all(b < a for a, b in zip(mses, mses[1:]))
        for row in group:
            row["mse_monotone"] = monotone
        rows += group
    return rows


def fidelity_rows_direct(config: ExperimentConfig) -> list[dict]:
    """The fidelity table by the plain nested loop: every (cell, seed) explains
    afresh and scores its explanation alone on a freshly drawn ball."""
    ctx = build_context(config)
    rows = []
    for entry, sigma, eps, norm in itertools.product(
        config.methods, config.sigmas, config.metrics.epsilons, config.metrics.norms
    ):
        method = method_from_json({**entry, "sigma": sigma})
        row = {"method": method.label, "sigma": sigma, "epsilon": eps, "norm": norm,
               "fidelity_mean": None, "fidelity_std": None, "error": ""}
        try:
            vals = []
            for s in config.seeds:
                exp = _explain_direct(ctx, method, config.sample_sizes[0], config.lambdas[0], s)
                vals += local_fidelity(ctx.model, ctx.x, [exp], ctx.segmentation,
                                       eps, norm, config.metrics.m,
                                       substream_seed(s, _BALL_STREAM))
            row["fidelity_mean"] = float(np.mean(vals))
            row["fidelity_std"] = float(np.std(vals))
        except Exception as exc:
            row["error"] = _failure_text(exc)
        rows.append(row)
    return rows
