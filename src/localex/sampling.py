"""Perturbation distributions and weighting kernels with seeded, replayable draws.

Probability formulas are evaluated in log space: the exponential kernel falls
to exp(-8d) on half-dropped masks, which underflows double precision directly
computed once d is large. Returned weights can still underflow to subnormal
zero for extreme (d, sigma); the solver rejects zero sample weights rather
than silently fitting an unweighted problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapDegenerate

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream_seed(master_seed: int, replicate: int) -> int:
    """Seed for replicate r of a run with master seed s: splitmix64(s XOR r).

    Gives independent, coordination-free streams that are reproducible from
    (s, r) alone.
    """
    return splitmix64((master_seed ^ replicate) & _MASK64)


def bernoulli_p(sigma: float) -> float:
    """Success probability of the binomial mask law: 1 / (1 + e^{-1/sigma^2})."""
    return 1.0 / (1.0 + math.exp(-1.0 / (sigma * sigma)))


# ---------------------------------------------------------------------------
# distribution specs


@dataclass(frozen=True)
class _Law:
    """Sampling law over d coordinates."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")


@dataclass(frozen=True)
class _ScaledLaw(_Law):
    """Sampling law with a width sigma > 0."""

    sigma: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class UniformBinary(_Law):
    """Fair-coin masks on {0,1}^d."""


@dataclass(frozen=True)
class Binomial(_ScaledLaw):
    """i.i.d. Bernoulli(p) masks with p = 1/(1+e^{-1/sigma^2})."""

    @property
    def p(self) -> float:
        return bernoulli_p(self.sigma)


@dataclass(frozen=True)
class Gaussian(_ScaledLaw):
    """i.i.d. N(0, sigma^2) offsets per coordinate."""


@dataclass(frozen=True)
class Laplace(_ScaledLaw):
    """i.i.d. Laplace offsets, scale sigma/sqrt(2) so the variance is sigma^2."""

    @property
    def scale(self) -> float:
        return self.sigma / math.sqrt(2.0)


@dataclass(frozen=True)
class UniformBox(_ScaledLaw):
    """i.i.d. uniform offsets on [-sqrt(3)*sigma, sqrt(3)*sigma], variance sigma^2."""

    @property
    def half_width(self) -> float:
        return math.sqrt(3.0) * self.sigma


DistributionSpec = UniformBinary | Binomial | Gaussian | Laplace | UniformBox


# ---------------------------------------------------------------------------
# weighting kernels


@dataclass(frozen=True)
class ExpKernel:
    """pi(z') = exp((k - d)/sigma^2) with k the number of kept features.

    For binary vectors the squared l2 distance to the all-ones mask equals
    the count of dropped features, so the exponent is the unsquared count.
    """

    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class ShapKernel:
    """pi(z') = (d-1) / (C(d,k) * k * (d-k)); infinite at k in {0, d}."""


@dataclass(frozen=True)
class Unit:
    """pi(z) = 1 for any sample, binary or continuous."""


WeightSpec = ExpKernel | ShapKernel | Unit


# ---------------------------------------------------------------------------
# operations


def draw(dist: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """Draw an n x d sample matrix; a pure function of (dist, n, seed)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if isinstance(dist, UniformBinary):
        return rng.integers(0, 2, size=(n, dist.d)).astype(np.float64)
    if isinstance(dist, Binomial):
        return (rng.random(size=(n, dist.d)) < dist.p).astype(np.float64)
    if isinstance(dist, Gaussian):
        return rng.normal(0.0, dist.sigma, size=(n, dist.d))
    if isinstance(dist, Laplace):
        return rng.laplace(0.0, dist.scale, size=(n, dist.d))
    if isinstance(dist, UniformBox):
        h = dist.half_width
        return rng.uniform(-h, h, size=(n, dist.d))
    raise TypeError(f"unknown distribution spec: {dist!r}")


def weight(wspec: WeightSpec, zprime: np.ndarray) -> float:
    """Kernel weight of a single binary mask."""
    z = np.asarray(zprime, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("weight takes a single mask; use batch_weights for matrices")
    return float(batch_weights(wspec, z[None, :])[0])


def batch_weights(wspec: WeightSpec, zmatrix: np.ndarray) -> np.ndarray:
    """Kernel weights for each row of an n x d sample matrix.

    Unit takes any samples; the other kernels are defined on binary masks.
    """
    z = np.asarray(zmatrix, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("batch_weights takes an n x d matrix")
    n, d = z.shape
    if isinstance(wspec, Unit):
        return np.ones(n)
    if not np.all((z == 0.0) | (z == 1.0)):
        raise ValueError("weight kernels are defined on binary masks only")
    k = z.sum(axis=1)
    if isinstance(wspec, ExpKernel):
        return np.exp((k - d) / (wspec.sigma * wspec.sigma))
    if isinstance(wspec, ShapKernel):
        degenerate = (k == 0) | (k == d)
        if np.any(degenerate):
            raise ShapDegenerate(
                f"Shapley kernel weight is infinite at k={int(k[degenerate][0])} "
                f"with d={d}; exclude all-on/all-off coalitions"
            )
        # one weight per coalition size: exact integer arithmetic, then one
        # correctly rounded division
        by_size = [0.0] + [(d - 1) / (math.comb(d, j) * j * (d - j)) for j in range(1, d)]
        return np.array(by_size)[k.astype(int)]
    raise TypeError(f"unknown weight spec: {wspec!r}")


def binomial_pmf(d: int, sigma: float, k: int) -> float:
    """P(#kept = k) under the binomial mask law: C(d,k) e^{k/s^2}/(1+e^{1/s^2})^d."""
    if not 0 <= k <= d:
        raise ValueError(f"k must be in [0, {d}], got {k}")
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    inv = 1.0 / (sigma * sigma)
    log_comb = math.lgamma(d + 1) - math.lgamma(k + 1) - math.lgamma(d - k + 1)
    # log(1 + e^{1/s^2}) = 1/s^2 + log1p(e^{-1/s^2}), stable for small sigma
    log_norm = inv + math.log1p(math.exp(-inv))
    return math.exp(log_comb + k * inv - d * log_norm)


def expected_weight_uniform(d: int, sigma: float) -> float:
    """Mean exponential-kernel weight under fair-coin masks: ((1+e^{-1/s^2})/2)^d."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    inv = 1.0 / (sigma * sigma)
    return math.exp(d * (math.log1p(math.exp(-inv)) - math.log(2.0)))
