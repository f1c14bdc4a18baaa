"""Stability and local-fidelity metrics for explanations.

Top-K selection uses raw attribution values by default (not magnitudes), with
ties broken toward lower indices; pass use_abs=True to rank by magnitude.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .explain import Explanation
from .feature_space import Segmentation, feature_offsets
from .models import ModelSpec, evaluate

DEFAULT_TOP_K = 20


@dataclass(frozen=True)
class StabilityReport:
    """Average top-K Jaccard index over all unordered pairs of explanations."""

    k: int
    mean_jaccard: float
    pairwise: tuple[float, ...]
    n_seeds: int


@dataclass(frozen=True)
class FidelityReport:
    """Local fidelity 1/(1 + MSE) of a surrogate over an epsilon-ball sample."""

    epsilon: float
    norm: str
    fidelity: float
    m: int


@dataclass(frozen=True)
class ExplanationDistance:
    """Coordinate-wise distances and correlations between two attribution vectors."""

    mse: float
    mae: float
    pearson: float
    spearman: float
    degenerate_variance: bool = False


def top_k_indices(w: np.ndarray, k: int, use_abs: bool = False) -> np.ndarray:
    """Indices of the k largest entries; ties resolved toward lower indices."""
    vals = np.abs(w) if use_abs else np.asarray(w)
    # stable sort on the negated values keeps lower indices first among ties
    return np.argsort(-vals, kind="stable")[:k]


def top_k_jaccard(
    explanations: list[Explanation], k: int | None = None, use_abs: bool = False
) -> StabilityReport:
    """Pairwise top-K Jaccard stability across explanations of one instance."""
    if len(explanations) < 2:
        raise ValueError("need at least two explanations to measure stability")
    d = explanations[0].d
    if any(e.d != d for e in explanations):
        raise DimensionMismatch("explanations have differing dimensions")
    if k is None:
        k = min(DEFAULT_TOP_K, d)
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    tops = [frozenset(top_k_indices(e.w, k, use_abs).tolist()) for e in explanations]
    pairs = []
    for i in range(len(tops)):
        for j in range(i + 1, len(tops)):
            inter = len(tops[i] & tops[j])
            union = len(tops[i] | tops[j])
            pairs.append(inter / union)
    return StabilityReport(k, float(np.mean(pairs)), tuple(pairs), len(explanations))


def sample_ball(
    x: np.ndarray, epsilon: float, norm: str, m: int, seed: int
) -> np.ndarray:
    """m points uniform in the norm ball of radius epsilon around x.

    l2: sphere direction times radius u^{1/D}. l1: Laplace draws normalized to
    the l1 sphere (signed simplex), same radius law. linf: per-coordinate
    uniform. Deterministic per (x, epsilon, norm, m, seed).
    """
    x = np.asarray(x, dtype=np.float64)
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    dim = x.shape[0]
    rng = np.random.default_rng(seed)
    if norm == "linf":
        return x + rng.uniform(-epsilon, epsilon, size=(m, dim))
    if norm == "l2":
        g = rng.normal(size=(m, dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radius = epsilon * rng.random(m) ** (1.0 / dim)
        return x + radius[:, None] * g
    if norm == "l1":
        g = rng.laplace(size=(m, dim))
        g /= np.abs(g).sum(axis=1, keepdims=True)
        radius = epsilon * rng.random(m) ** (1.0 / dim)
        return x + radius[:, None] * g
    raise ValueError(f"norm must be one of l1, l2, linf; got {norm!r}")


def local_fidelity(
    model: ModelSpec,
    x: np.ndarray,
    explanation: Explanation,
    segmentation: Segmentation,
    epsilon: float,
    norm: str,
    m: int,
    seed: int,
) -> FidelityReport:
    """1/(1 + mean squared surrogate error) over an epsilon-ball around x.

    Ball points are projected to feature space as per-segment mean offsets and
    fed to the linear surrogate (intercept + w . offset). Explanations fit on
    binary masks are evaluated under the same additive-offset convention, so
    fidelity compares how each learned linear function tracks the model near x
    regardless of how it was fit.
    """
    if explanation.d != segmentation.d:
        raise DimensionMismatch(
            f"explanation has d={explanation.d}, segmentation d={segmentation.d}"
        )
    x = np.asarray(x, dtype=np.float64)
    points = sample_ball(x, epsilon, norm, m, seed)
    offsets = feature_offsets(points - x, segmentation)
    surrogate = explanation.intercept + offsets @ explanation.w
    mse = float(np.mean((evaluate(model, points) - surrogate) ** 2))
    return FidelityReport(epsilon, norm, 1.0 / (1.0 + mse), m)


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank (scipy's rankdata default)."""
    s = np.sort(a)
    # a value first found at 0-based l and last at r - 1 ranks (l + 1 + r) / 2
    return (np.searchsorted(s, a, "left") + np.searchsorted(s, a, "right") + 1) / 2


def explanation_distance(e1: Explanation, e2: Explanation) -> ExplanationDistance:
    """MSE, MAE, Pearson, and Spearman between two attribution vectors."""
    if e1.d != e2.d:
        raise DimensionMismatch(f"dimensions differ: {e1.d} vs {e2.d}")
    if e1.d < 2:
        raise ValueError("distances need d >= 2")
    a, b = e1.w, e2.w
    diff = a - b
    mse = float(np.mean(diff**2))
    mae = float(np.mean(np.abs(diff)))
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return ExplanationDistance(mse, mae, 0.0, 0.0, degenerate_variance=True)
    pearson = float(np.corrcoef(a, b)[0, 1])
    ra, rb = _average_ranks(a), _average_ranks(b)
    if np.ptp(ra) == 0.0 or np.ptp(rb) == 0.0:
        return ExplanationDistance(mse, mae, pearson, 0.0, degenerate_variance=True)
    spearman = float(np.corrcoef(ra, rb)[0, 1])
    return ExplanationDistance(mse, mae, pearson, spearman)
