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

import dataclasses
import itertools
import typing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionTooLarge, NonFiniteOutput, ShapDegenerate
from .feature_space import (
    Reference,
    Segmentation,
    reconstruct_binary,
    reconstruct_continuous,
)
from .models import ModelSpec, evaluate
from .sampling import (
    Binomial,
    DistributionSpec,
    ExpKernel,
    Gaussian,
    Laplace,
    ShapKernel,
    UniformBinary,
    UniformBox,
    Unit,
    WeightSpec,
    batch_weights,
    draw,
    splitmix64,
)
from .solver import RidgeProblem, solve_weighted_ridge

EXACT_SHAP_MAX_D = 20


# ---------------------------------------------------------------------------
# method specs: one row of the (law, kernel, ridge) table per class


class _Method:
    """A method's row, read by the pipeline instead of its type: sampler(d)
    gives the (law, kernel) of its samples, then these class attributes."""

    binary: bool = False  # lift samples against a reference, not as offsets
    fixed_lam: float | None = None  # ridge strength the method fixes; None: the request's

    @property
    def label(self) -> str:  # the method column of sweep tables
        return type(self).__name__


@dataclass(frozen=True)
class _SigmaMethod(_Method):
    """Method with a kernel or sampling width sigma > 0; by default its samples
    come unweighted from the class's law(d, sigma)."""

    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def sampler(self, d: int) -> tuple[DistributionSpec, WeightSpec]:
        return self.law(d, self.sigma), Unit()


@dataclass(frozen=True)
class Lime(_SigmaMethod):
    """Fair-coin masks weighted by the exponential kernel; ridge surrogate.

    unit_weights=True is the no-weighting ablation (pi = 1), used to probe how
    much of LIME's small-sigma instability the kernel itself causes.
    """

    unit_weights: bool = False
    binary = True

    def sampler(self, d: int) -> tuple[DistributionSpec, WeightSpec]:
        return UniformBinary(d), Unit() if self.unit_weights else ExpKernel(self.sigma)

    @property
    def label(self) -> str:
        return "LimeUnweighted" if self.unit_weights else "Lime"


@dataclass(frozen=True)
class GlimeBinomial(_SigmaMethod):
    """Weight-free equivalent of Lime: Bernoulli(1/(1+e^{-1/sigma^2})) masks."""

    law = Binomial
    binary = True


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
class KernelShap(_Method):
    """Shapley-kernel weighted regression; exact mode enumerates all coalitions."""

    exact: bool = True
    binary = True
    fixed_lam = 0.0

    def sampler(self, d: int) -> tuple[DistributionSpec, WeightSpec]:
        return UniformBinary(d), ShapKernel()


@dataclass(frozen=True)
class SmoothGrad(_SigmaMethod):
    """Gaussian-smoothed gradient estimator on raw features."""

    law = Gaussian  # drawn by smoothgrad_estimate, which fits no surrogate
    fixed_lam = 0.0


MethodSpec = (
    Lime | GlimeBinomial | GlimeGauss | GlimeLaplace | GlimeUniform | KernelShap | SmoothGrad
)

_METHODS = {cls.__name__: cls for cls in typing.get_args(MethodSpec)}
_FIELD_TYPES = {"float": float, "bool": bool}


def method_name(method: MethodSpec) -> str:
    return type(method).__name__


def default_lambda(method: MethodSpec) -> float:
    """Ridge strength default: 1 unless the method fixes its own (KernelShap: 0)."""
    return 1.0 if method.fixed_lam is None else method.fixed_lam


def method_to_json(method: MethodSpec) -> dict:
    """The method tag, then its fields, leaving out flags that are off by default."""
    obj: dict = {"method": method_name(method)}
    for f in dataclasses.fields(method):
        value = getattr(method, f.name)
        if value or f.default is not False:
            obj[f.name] = value
    return obj


def method_from_json(obj: dict) -> MethodSpec:
    try:
        name = obj["method"]
    except (TypeError, KeyError) as exc:
        raise ConfigError("method entry must be an object with a 'method' tag") from exc
    if name not in _METHODS:
        raise ConfigError(f"unknown method: {name!r}")
    cls = _METHODS[name]
    try:
        return cls(**{
            f.name: _FIELD_TYPES[f.type](obj[f.name])
            for f in dataclasses.fields(cls)
            if f.name in obj or f.default is dataclasses.MISSING
        })
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
        if self.method.binary and self.reference is None:
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


def _coalitions(method: KernelShap, law: UniformBinary, n: int, seed: int) -> np.ndarray:
    """Every coalition with 1 <= k <= d-1 (exact mode, which recovers Shapley
    values of games whose interactions stay below degree d), or the first n
    such draws from law."""
    d = law.d
    if d < 2:
        raise ShapDegenerate("KernelShap needs d >= 2: every coalition is degenerate")
    if method.exact:
        if d > EXACT_SHAP_MAX_D:
            raise DimensionTooLarge(f"exact enumeration caps at d={EXACT_SHAP_MAX_D}, "
                                    f"got d={d}")
        codes = np.arange(1, 2**d - 1, dtype=np.uint32)
        return ((codes[:, None] >> np.arange(d, dtype=np.uint32)) & 1).astype(np.float64)
    kept: list[np.ndarray] = []
    for round_idx in itertools.count():
        masks = draw(law, max(n, 256), splitmix64(seed ^ round_idx))
        k = masks.sum(axis=1)
        kept.append(masks[(k > 0) & (k < d)])
        if sum(map(len, kept)) >= n:
            return np.vstack(kept)[:n]


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
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        grad = (offsets.T @ responses) / (n * sigma * sigma)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteOutput("SmoothGrad estimate overflowed: model responses are too large")
    return grad


def explain(req: ExplainRequest) -> Explanation:
    """Draw the method's samples, weight them by its kernel, lift, evaluate and
    fit the ridge surrogate with the method's fixed lambda, if it has one, else
    the request's. KernelShap records the number of coalitions used as n.
    """
    method, seg = req.method, req.segmentation
    lam = req.lam if method.fixed_lam is None else method.fixed_lam
    if isinstance(method, SmoothGrad):
        w = smoothgrad_estimate(req.model, req.x, method.sigma, req.n, req.seed)
        fx = float(evaluate(req.model, req.x[None, :])[0])
        # local linearization around x: intercept f(x), no surrogate fit, no R^2
        return Explanation(w, fx, None, method, req.n, req.seed, lam, seg.d)
    law, kernel = method.sampler(seg.d)
    if isinstance(method, KernelShap):  # the one method with its own coalition set
        design = _coalitions(method, law, req.n, req.seed)
    else:
        design = draw(law, req.n, req.seed)
    pi = batch_weights(kernel, design)
    if method.binary:
        points = reconstruct_binary(req.x, req.reference, seg, design)
    else:
        points = reconstruct_continuous(req.x, seg, design)
    sol = solve_weighted_ridge(RidgeProblem(design, evaluate(req.model, points), pi, lam))
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
) -> tuple[np.ndarray, float]:
    """Limit of Lime/GlimeBinomial on a linear model: w_j = sum_seg c_i (x_i - r_i).

    The limit does not depend on sigma; the kernel width only changes the
    finite-sample convergence rate.
    """
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
