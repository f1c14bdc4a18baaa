"""Explanation methods: LIME, the weight-free GLIME family, KernelSHAP and
SmoothGrad.

Every method is one (sampling law, weighting, fit) row run by one pipeline:
draw n samples in feature space from the method's law, weight them by its
kernel (unit weights for the GLIME family and SmoothGrad), lift them to raw
inputs, evaluate the model and fit, by weighted ridge or, for SmoothGrad, from
the law's known moments. All methods are deterministic functions of their
request, including the seed; identical requests yield identical explanations.
"""
from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteOutput, check_rows, check_scale, read_tagged, to_json
from .feature_space import Reference, Segmentation, reconstruct_binary, reconstruct_continuous
from .models import ModelSpec, evaluate, evaluate_blocks
from .sampling import (
    Binomial,
    Coalitions,
    DistributionSpec,
    ExpKernel,
    Frozen,
    Gaussian,
    Laplace,
    ShapKernel,
    UniformBinary,
    UniformBox,
    Unit,
    WeightSpec,
    batch_weights,
    draw,
)
from .solver import RidgeProblem, solve_weighted_ridge


# ---------------------------------------------------------------------------
# method specs: one row of the (law, kernel, fit) table per class


class _Method(Frozen):
    """A method's row, read by the pipeline instead of its type: sampler(d)
    gives the (law, kernel) of its samples, then these class attributes."""

    binary: bool = False  # lift samples against a reference, not as offsets
    seeded: bool = True  # False: the seed draws nothing, so one explanation serves all
    fixed_lam: float | None = None  # ridge strength the method fixes; None: the request's
    known_moments: bool = False  # fit from the law's known covariance, not by ridge

    @property
    def label(self) -> str:  # the method column of sweep tables
        return type(self).__name__


@dataclass(frozen=True)
class _SigmaMethod(_Method):
    """Method with a kernel or sampling width sigma > 0; by default its samples
    come unweighted from the class's law(d, sigma). A subclass that adds no
    field is not decorated again: it inherits these generated methods, whose
    equality also compares the class."""

    sigma: float

    def __post_init__(self) -> None:
        check_scale("sigma", self.sigma)

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


class GlimeBinomial(_SigmaMethod):
    """Weight-free equivalent of Lime: Bernoulli(1/(1+e^{-1/sigma^2})) masks."""

    law = Binomial
    binary = True


class GlimeGauss(_SigmaMethod):
    """Additive Gaussian offsets in feature space; reference-independent."""

    law = Gaussian


class GlimeLaplace(_SigmaMethod):
    """Additive Laplace offsets, variance-matched to sigma^2 per coordinate."""

    law = Laplace


class GlimeUniform(_SigmaMethod):
    """Additive uniform-box offsets, variance-matched to sigma^2 per coordinate."""

    law = UniformBox


@dataclass(frozen=True)
class KernelShap(_Method):
    """Shapley-kernel weighted regression; exact mode enumerates all coalitions."""

    exact: bool = True
    binary = True
    fixed_lam = 0.0
    seeded = property(lambda self: not self.exact)

    def sampler(self, d: int) -> tuple[DistributionSpec, WeightSpec]:
        return Coalitions(d, self.exact), ShapKernel()


class SmoothGrad(_SigmaMethod):
    """Gaussian-smoothed gradient on raw features: GlimeGauss's samples, fit
    by the Gaussian law's known covariance sigma^2 I instead of by ridge."""

    law = Gaussian
    fixed_lam = 0.0
    known_moments = True


MethodSpec = (
    Lime | GlimeBinomial | GlimeGauss | GlimeLaplace | GlimeUniform | KernelShap | SmoothGrad
)

_METHODS = {cls.__name__: cls for cls in typing.get_args(MethodSpec)}


def method_name(method: MethodSpec) -> str:
    return type(method).__name__


def method_to_json(method: MethodSpec) -> dict:
    """The method tag, then its fields, leaving out flags that are off by default."""
    return {"method": method_name(method), **to_json(method)}


def method_from_json(obj: dict) -> MethodSpec:
    """A method entry: the method tag, then its fields. Every entry accepts sigma,
    which a sweep adds to each, and a method without one (KernelShap) ignores it."""
    return read_tagged(obj, "method", _METHODS, "method entry", "method entry", ("sigma",))


# ---------------------------------------------------------------------------
# requests and explanations


def check_held(model: ModelSpec, n: int, seg: Segmentation, name: str = "n") -> None:
    """Raise ConfigError unless what an explain of n samples holds fits in
    MAX_VALUES: its n x d samples and fit, its d x d ridge system and, for a
    remote model, one forward call's raw points. A builtin model's blocks of
    raw points hold BLOCK_VALUES values whatever n is (16 rows past 32,768
    inputs), so n x D is not a bound of its own. name names n in the message."""
    check_rows(f"{name} x d", n, seg.d)
    if model.width is None:  # a remote model's block: up to block_rows distinct samples
        check_rows("a remote call's points x width", min(n, model.block_rows), seg.size)
    check_rows("the ridge system's d x d", seg.d, seg.d)


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
        check_held(self.model, self.n, self.segmentation)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.method.binary and self.reference is None:
            raise ConfigError(
                f"{method_name(self.method)} perturbs against a reference; none given"
            )
        if self.method.known_moments and self.segmentation.d != self.segmentation.size:
            raise ConfigError(f"{method_name(self.method)} is defined on raw features "
                              "(singleton segments)")


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

    @property
    def d(self) -> int:
        return len(self.w)


def explanation_to_json(exp: Explanation) -> dict:
    extras = method_to_json(exp.method)
    return {
        "method": extras.pop("method"),
        "sigma": extras.pop("sigma", None),
        "lambda": exp.lam,
        "n": exp.n,
        "seed": exp.seed,
        "d": exp.d,
        "w": exp.w.tolist(),
        "intercept": exp.intercept,
        "r2": exp.r2,
        **extras,  # method-specific flags: unit_weights, exact
    }


# ---------------------------------------------------------------------------
# the methods


def _known_moment_estimate(design: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
    """Sigma^{-1} E[z f(x + z)] for Gaussian offsets z with known Sigma = sigma^2 I. By
    Stein's identity this estimates the Gaussian-smoothed gradient E[grad f(x + z)]."""
    n = len(design)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        grad = (design.T @ y) / (n * sigma * sigma)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteOutput("SmoothGrad estimate overflowed: model responses are too large")
    return grad


class OneSlot:
    """A cache of one value: the last one made, under its key. A sweep runner
    owns one and orders its calls so that those with equal keys run one after
    another. A new key drops the old value before its own is made, so memory
    never holds two."""

    def __init__(self) -> None:
        self.key: typing.Hashable = None
        self.value: typing.Any = None

    def get(self, key: typing.Hashable, make: typing.Callable[[], typing.Any]) -> typing.Any:
        if self.key != key:
            self.key = self.value = None
            self.value = make()
            self.key = key
        return self.value


def _distinct_masks(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an n x d bool design, in the order they first occur,
    and for each of the n rows the index of its distinct row. Each row is keyed
    by its packed bits, ceil(d/8) bytes, so the n keys take one np.unique."""
    packed = np.packbits(design, axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return design[first[order]], rank[inverse]


def explain(req: ExplainRequest, samples: OneSlot | None = None) -> Explanation:
    """Draw the method's samples, lift and evaluate them, weight them by its kernel
    and fit: by ridge with the method's fixed lambda, if it has one, else the
    request's, or from known moments. n records the samples used (exact
    KernelShap: all). The samples are lifted and evaluated one block at a time,
    so memory holds the n x d samples and one block of raw points (two while a
    builtin model of image-scale inputs has its blocks split between two
    threads), never all n of them. A remote model is asked once per distinct
    binary mask, in the order the masks first occur, its endpoint being taken to
    be a function of each point; the responses are then copied to every sample, so
    weights and fit see all n, and a non-finite response is counted over the
    points sent. A builtin model evaluates every sample, since its last bits can
    depend on the row count of its call. samples, when given, keeps the last
    sample set and its responses: a request with the same law, lift, n and seed
    on the same model, input, segmentation and reference reuses them and only
    weights and fits."""
    method, seg = req.method, req.segmentation
    lam = req.lam if method.fixed_lam is None else method.fixed_lam
    law, kernel = method.sampler(seg.d)

    def draw_lift_evaluate() -> tuple[ExplainRequest, np.ndarray, np.ndarray]:
        design = draw(law, req.n, req.seed)
        sent, back = design, slice(None)  # the samples evaluated, and y's map back
        # a law that enumerates its masks (the unseeded row) draws each one once
        if method.binary and method.seeded and req.model.kind == "remote":
            sent, back = _distinct_masks(design)

        def lift(block: slice, out: np.ndarray | None = None) -> np.ndarray:
            """Raw points of one block of samples, into out when it is given."""
            if method.binary:
                return reconstruct_binary(req.x, req.reference, seg, sent[block], out)
            return reconstruct_continuous(req.x, seg, sent[block], out)

        y = evaluate_blocks(req.model, len(sent), lift, evaluate, split=True)
        # req rides along so that the objects whose ids are in the key stay alive
        return req, design, y[back]

    key = (law, method.binary, req.n, req.seed,
           *map(id, (req.model, req.x, seg, req.reference)))
    _, design, y = (samples or OneSlot()).get(key, draw_lift_evaluate)
    pi = batch_weights(kernel, design)
    if method.known_moments:
        w = _known_moment_estimate(design, y, method.sigma)
        # local linearization around x: intercept f(x), no surrogate, no R^2
        fit = w, float(evaluate(req.model, req.x[None, :])[0]), None
    else:
        fit = solve_weighted_ridge(RidgeProblem(design, y, pi, lam))
    return Explanation(*fit, method, len(design), req.seed, lam)

