"""Explanation methods: LIME, the weight-free GLIME family, KernelSHAP, and a
SmoothGrad estimator, plus infinite-sample oracles for linear models.

Every surrogate method is one pipeline over a (sampling law, weighting, ridge)
triple: draw n samples in feature space from the method's law, weight them by
its kernel (unit weights for the GLIME family), lift them to raw inputs,
evaluate the model and fit a weighted ridge surrogate. SmoothGrad fits no
surrogate. All methods are deterministic functions of their request,
including the seed; identical requests yield identical explanations.
"""
from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionTooLarge, ShapDegenerate
from .feature_space import (
    Reference,
    Segmentation,
    reconstruct_binary,
    reconstruct_continuous,
)
from .models import ModelSpec, evaluate
from .sampling import (
    Binomial,
    ExpKernel,
    Gaussian,
    Laplace,
    ShapKernel,
    UniformBinary,
    UniformBox,
    batch_weights,
    draw,
    splitmix64,
)
from .solver import RidgeProblem, solve_weighted_ridge

EXACT_SHAP_MAX_D = 20


# ---------------------------------------------------------------------------
# method specs


@dataclass(frozen=True)
class _SigmaMethod:
    """Method with a kernel or sampling width sigma > 0."""

    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class Lime(_SigmaMethod):
    """Fair-coin masks weighted by the exponential kernel; ridge surrogate.

    unit_weights=True is the no-weighting ablation (pi = 1), used to probe how
    much of LIME's small-sigma instability the kernel itself causes.
    """

    unit_weights: bool = False


@dataclass(frozen=True)
class GlimeBinomial(_SigmaMethod):
    """Weight-free equivalent of Lime: Bernoulli(1/(1+e^{-1/sigma^2})) masks."""

    # a class attribute, not a field: the GLIME methods fit unweighted samples
    # drawn from law(d, sigma)
    law = Binomial


@dataclass(frozen=True)
class GlimeGauss(_SigmaMethod):
    """Additive Gaussian offsets in feature space; reference-independent."""

    law = Gaussian


@dataclass(frozen=True)
class GlimeLaplace(_SigmaMethod):
    """Additive Laplace offsets, variance-matched to sigma^2 per coordinate."""

    law = Laplace


@dataclass(frozen=True)
class GlimeUniform(_SigmaMethod):
    """Additive uniform-box offsets, variance-matched to sigma^2 per coordinate."""

    law = UniformBox


@dataclass(frozen=True)
class KernelShap:
    """Shapley-kernel weighted regression; exact mode enumerates all coalitions."""

    exact: bool = True


@dataclass(frozen=True)
class SmoothGrad(_SigmaMethod):
    """Gaussian-smoothed gradient estimator on raw features."""


MethodSpec = (
    Lime | GlimeBinomial | GlimeGauss | GlimeLaplace | GlimeUniform | KernelShap | SmoothGrad
)

_BINARY_METHODS = (Lime, GlimeBinomial, KernelShap)
_METHODS = {cls.__name__: cls for cls in typing.get_args(MethodSpec)}


def method_name(method: MethodSpec) -> str:
    return type(method).__name__


def default_lambda(method: MethodSpec) -> float:
    """Ridge strength default: 1 for ridge-based methods, 0 for KernelShap."""
    return 0.0 if isinstance(method, (KernelShap, SmoothGrad)) else 1.0


def method_to_json(method: MethodSpec) -> dict:
    obj: dict = {"method": method_name(method)}
    sigma = getattr(method, "sigma", None)
    if sigma is not None:
        obj["sigma"] = sigma
    if isinstance(method, Lime) and method.unit_weights:
        obj["unit_weights"] = True
    if isinstance(method, KernelShap):
        obj["exact"] = method.exact
    return obj


def method_from_json(obj: dict) -> MethodSpec:
    try:
        name = obj["method"]
    except (TypeError, KeyError) as exc:
        raise ConfigError("method entry must be an object with a 'method' tag") from exc
    if name not in _METHODS:
        raise ConfigError(f"unknown method: {name!r}")
    try:
        if name == "Lime":
            return Lime(float(obj["sigma"]), bool(obj.get("unit_weights", False)))
        if name == "KernelShap":
            return KernelShap(bool(obj.get("exact", True)))
        return _METHODS[name](float(obj["sigma"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {name} method entry: {exc}") from exc


# ---------------------------------------------------------------------------
# requests and explanations


@dataclass(frozen=True)
class ExplainRequest:
    model: ModelSpec
    x: np.ndarray
    segmentation: Segmentation
    method: MethodSpec
    n: int
    seed: int
    lam: float = 1.0
    reference: Reference | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        object.__setattr__(self, "x", x)
        if x.shape != (self.segmentation.size,):
            raise ConfigError(
                f"input has length {x.size}, segmentation expects {self.segmentation.size}"
            )
        if self.n < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.n}")
        if not self.lam >= 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if isinstance(self.method, _BINARY_METHODS) and self.reference is None:
            raise ConfigError(
                f"{method_name(self.method)} perturbs against a reference; none given"
            )
        if isinstance(self.method, SmoothGrad) and (
            self.segmentation.d != self.segmentation.size
        ):
            raise ConfigError("SmoothGrad is defined on raw features (singleton segments)")


@dataclass(frozen=True)
class Explanation:
    """Attribution vector plus the run parameters that produced it.

    r2 is None for methods that fit no surrogate.
    """

    w: np.ndarray
    intercept: float
    r2: float | None
    method: MethodSpec
    n: int
    seed: int
    lam: float
    d: int

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        if w.shape != (self.d,):
            raise ValueError(f"w has shape {w.shape}, expected ({self.d},)")
        if not np.all(np.isfinite(w)):
            raise ValueError("attributions must be finite")
        object.__setattr__(self, "w", w)

    @property
    def sigma(self) -> float | None:
        return getattr(self.method, "sigma", None)


def explanation_to_json(exp: Explanation) -> dict:
    extras = method_to_json(exp.method)
    extras.pop("method")
    extras.pop("sigma", None)
    return {
        "method": method_name(exp.method),
        "sigma": exp.sigma,
        "lambda": exp.lam,
        "n": exp.n,
        "seed": exp.seed,
        "d": exp.d,
        "w": exp.w.tolist(),
        "intercept": exp.intercept,
        "r2": exp.r2,
        **extras,  # method-specific flags: unit_weights, exact
    }


def explanation_from_json(obj: dict) -> Explanation:
    method = method_from_json(obj)
    return Explanation(
        np.asarray(obj["w"]),
        float(obj["intercept"]),
        None if obj.get("r2") is None else float(obj["r2"]),
        method,
        int(obj["n"]),
        int(obj["seed"]),
        float(obj["lambda"]),
        int(obj["d"]),
    )


# ---------------------------------------------------------------------------
# the methods


def _all_interior_masks(d: int) -> np.ndarray:
    """All masks with 1 <= k <= d-1, in increasing integer order."""
    codes = np.arange(1, 2**d - 1, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(d, dtype=np.uint32)) & 1).astype(np.float64)


def _sampled_interior_masks(d: int, n: int, seed: int) -> np.ndarray:
    """First n fair-coin masks with the degenerate coalitions discarded."""
    kept: list[np.ndarray] = []
    total = 0
    chunk = max(n, 256)
    for round_idx in itertools.count():
        masks = draw(UniformBinary(d), chunk, splitmix64(seed ^ round_idx))
        k = masks.sum(axis=1)
        good = masks[(k > 0) & (k < d)]
        kept.append(good)
        total += len(good)
        if total >= n:
            break
    return np.vstack(kept)[:n]


def _design(req: ExplainRequest) -> tuple[np.ndarray, np.ndarray]:
    """The method's samples in feature space and their weights: (design, pi).

    KernelShap exact mode enumerates every non-degenerate coalition, which
    recovers Shapley values for games whose interactions do not reach full
    degree d; the acceptance suite checks this against brute-force enumeration.
    """
    method, d, n = req.method, req.segmentation.d, req.n
    if isinstance(method, Lime):
        masks = draw(UniformBinary(d), n, req.seed)
        if method.unit_weights:
            return masks, np.ones(n)
        return masks, batch_weights(ExpKernel(method.sigma), masks)
    if isinstance(method, KernelShap):
        if d < 2:
            raise ShapDegenerate("KernelShap needs d >= 2: every coalition is degenerate")
        if not method.exact:
            masks = _sampled_interior_masks(d, n, req.seed)
        elif d > EXACT_SHAP_MAX_D:
            raise DimensionTooLarge(
                f"exact enumeration caps at d={EXACT_SHAP_MAX_D}, got d={d}"
            )
        else:
            masks = _all_interior_masks(d)
        return masks, batch_weights(ShapKernel(), masks)
    return draw(method.law(d, method.sigma), n, req.seed), np.ones(n)  # the GLIME family


def smoothgrad_estimate(
    model: ModelSpec, x: np.ndarray, sigma: float, n: int, seed: int
) -> np.ndarray:
    """(1/sigma^2) * mean of z' f(x + z') over Gaussian offsets.

    By Stein's identity this estimates the Gaussian-smoothed gradient
    E[grad f(x + z')]; as sigma -> 0 it approaches the plain gradient.
    """
    x = np.asarray(x, dtype=np.float64)
    offsets = draw(Gaussian(x.shape[0], sigma), n, seed)
    responses = evaluate(model, x + offsets)
    return (offsets.T @ responses) / (n * sigma * sigma)


def explain(req: ExplainRequest) -> Explanation:
    """Sample, weight, lift, evaluate and fit the ridge surrogate of a request.

    KernelShap fits with lambda = 0 whatever the request says; its recorded n
    is the number of coalitions used.
    """
    method, seg = req.method, req.segmentation
    if isinstance(method, SmoothGrad):
        w = smoothgrad_estimate(req.model, req.x, method.sigma, req.n, req.seed)
        fx = float(evaluate(req.model, req.x[None, :])[0])
        # local linearization around x: intercept f(x), no surrogate fit, no R^2
        return Explanation(w, fx, None, method, req.n, req.seed, 0.0, seg.d)
    design, pi = _design(req)
    if isinstance(method, _BINARY_METHODS):
        points = reconstruct_binary(req.x, req.reference, seg, design)
    else:
        points = reconstruct_continuous(req.x, seg, design)
    lam = 0.0 if isinstance(method, KernelShap) else req.lam
    problem = RidgeProblem(design, evaluate(req.model, points), pi, lam)
    sol = solve_weighted_ridge(problem)
    return Explanation(
        sol.w, sol.intercept, sol.r2, method, len(design), req.seed, lam, seg.d
    )


# ---------------------------------------------------------------------------
# infinite-sample oracles for linear models


def infinite_limit_linear_binomial(
    c: np.ndarray,
    bias: float,
    x: np.ndarray,
    reference: Reference,
    seg: Segmentation,
    sigma: float | None = None,
) -> tuple[np.ndarray, float]:
    """Limit of Lime/GlimeBinomial on a linear model: w_j = sum_seg c_i (x_i - r_i).

    sigma is accepted for signature symmetry but the limit does not depend on
    it; the kernel width only changes the finite-sample convergence rate.
    """
    del sigma
    c = np.asarray(c, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    r = reference.values
    if c.shape != x.shape or c.shape != r.shape or c.shape != (seg.size,):
        raise ConfigError("c, x, and reference must all have the raw length")
    w = np.bincount(seg.assignment, weights=c * (x - r), minlength=seg.d)
    intercept = float(bias + c @ r)
    return w, intercept


def infinite_limit_linear_gauss(
    c: np.ndarray, bias: float, x: np.ndarray, seg: Segmentation
) -> tuple[np.ndarray, float]:
    """Limit of the additive continuous variants on a linear model.

    The broadcast lift makes the response exactly linear in the offsets, so
    the least-squares limit is w_j = sum_seg c_i with intercept f(x).
    """
    c = np.asarray(c, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if c.shape != x.shape or c.shape != (seg.size,):
        raise ConfigError("c and x must have the raw length")
    w = np.bincount(seg.assignment, weights=c, minlength=seg.d)
    intercept = float(bias + c @ x)
    return w, intercept
