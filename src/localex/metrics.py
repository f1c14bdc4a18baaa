"""Stability and local-fidelity metrics for explanations.

Top-K selection ranks raw attribution values, not magnitudes, with ties broken
toward lower indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, check_scale
from .explain import Explanation, OneSlot
from .feature_space import Segmentation, feature_offsets
from .models import ModelSpec, evaluate, evaluate_blocks

DEFAULT_TOP_K = 20
NORMS = ("l1", "l2", "linf")  # the balls unit_ball can draw
BALL_CHUNK = 32  # rows unit_ball normalises at once, in one reused buffer


def top_k_indices(w: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries; ties resolved toward lower indices."""
    # stable sort on the negated values keeps lower indices first among ties
    return np.argsort(-np.asarray(w), kind="stable")[:k]


def top_k_jaccard(explanations: Sequence[Explanation], k: int | None = None) -> dict[str, float]:
    """Pairwise top-K Jaccard stability across explanations of one instance:
    {"mean_jaccard", "std"} over all unordered pairs. k defaults to
    min(DEFAULT_TOP_K, d)."""
    if len(explanations) < 2:
        raise ValueError("need at least two explanations to measure stability")
    d = explanations[0].d
    if any(e.d != d for e in explanations):
        raise DimensionMismatch("explanations have differing dimensions")
    if k is None:
        k = min(DEFAULT_TOP_K, d)
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    # row i marks explanation i's top k; float32 sums these counts (at most d) exactly
    tops = np.zeros((len(explanations), d), np.float32)
    for row, e in zip(tops, explanations):
        row[top_k_indices(e.w, k)] = 1
    pairs, start = np.empty(len(tops) * (len(tops) - 1) // 2), 0
    for i in range(len(tops) - 1):  # the pairs (i, j > i), in itertools.combinations order
        shared = (tops[i + 1:] @ tops[i]).astype(np.float64)
        pairs[start:start + len(shared)] = shared / (2 * k - shared)  # |a & b| / |a | b|
        start += len(shared)
    return {"mean_jaccard": float(np.mean(pairs)), "std": float(np.std(pairs))}


@dataclass(frozen=True)
class UnitBall:
    """The draws behind m points of a norm ball, before its radius and centre
    are chosen: unit-sphere directions and radius fractions u^{1/D} (l1, l2),
    or per-coordinate uniforms in [0, 1) (linf, where radii is None)."""

    directions: np.ndarray  # m x D
    radii: np.ndarray | None

    def points(
        self, x: np.ndarray, epsilon: float, rows: slice = slice(None),
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Rows of the ball of radius epsilon around x, as sample_ball gives them,
        written into out when given (which may be the directions themselves)."""
        if self.radii is None:
            # numpy's uniform(-epsilon, epsilon) is exactly this arithmetic:
            # x + (-epsilon + (epsilon - -epsilon) * U), added in another order
            out = np.multiply(self.directions[rows], epsilon - -epsilon, out=out)
            out += -epsilon
        else:
            out = np.multiply(self.directions[rows], (epsilon * self.radii[rows])[:, None],
                              out=out)
        out += x
        return out


def unit_ball(norm: str, m: int, dim: int, seed: int) -> UnitBall:
    """m draws for a ball in R^dim; deterministic per (norm, m, dim, seed).

    l2: normal draws normalized to the sphere. l1: Laplace draws normalized to
    the l1 sphere (signed simplex). Both take radius fractions u^{1/D}, which
    make the points uniform in the ball. linf: per-coordinate uniforms.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {', '.join(NORMS)}; got {norm!r}")
    rng = np.random.default_rng(seed)
    if norm == "linf":
        return UnitBall(rng.random((m, dim)), None)
    g = rng.normal(size=(m, dim)) if norm == "l2" else rng.laplace(size=(m, dim))
    # normalised BALL_CHUNK rows at a time through one buffer of that many rows,
    # so no second m x D array is made; each row's norm is np.linalg.norm's sum,
    # which does not depend on the rows beside it
    buf = np.empty((min(m, BALL_CHUNK), dim))
    for start in range(0, m, BALL_CHUNK):
        c = g[start:start + BALL_CHUNK]
        part = buf[:len(c)]
        if norm == "l2":
            c /= np.sqrt(np.add.reduce(np.multiply(c, c, out=part), axis=1, keepdims=True))
        else:
            c /= np.abs(c, out=part).sum(axis=1, keepdims=True)
    return UnitBall(g, rng.random(m) ** (1.0 / dim))


def sample_ball(
    x: np.ndarray, epsilon: float, norm: str, m: int, seed: int
) -> np.ndarray:
    """m points uniform in the norm ball of radius epsilon around x: unit_ball's
    draws scaled and centred. Deterministic per (x, epsilon, norm, m, seed)."""
    x = np.asarray(x, dtype=np.float64)
    check_scale("epsilon", epsilon)
    ball = unit_ball(norm, m, x.shape[0], seed)
    return ball.points(x, epsilon, out=ball.directions)  # the draw is this call's own


def local_fidelity(
    model: ModelSpec,
    x: np.ndarray,
    explanations: Sequence[Explanation],
    segmentation: Segmentation,
    epsilon: float,
    norm: str,
    m: int,
    seed: int,
    balls: OneSlot | None = None,
) -> list[float]:
    """Local fidelity 1/(1 + mean squared surrogate error) over an epsilon-ball
    around x, one value per explanation, in order.

    Ball points are projected to feature space as per-segment mean offsets and
    fed to each linear surrogate (intercept + w . offset). Explanations fit on
    binary masks are evaluated under the same additive-offset convention, so
    fidelity compares how each learned linear function tracks the model near x
    regardless of how it was fit. The points are sample_ball's. They are made
    and evaluated one block at a time, and each evaluated block is turned into
    its offsets in place, so memory holds the ball, the m x d offsets and one
    block. The offsets are scored against every explanation. balls, when given,
    keeps the last unit ball, so that a call for another epsilon with the same
    (norm, m, seed) scales those draws instead of drawing again.
    """
    for e in explanations:
        if e.d != segmentation.d:
            raise DimensionMismatch(
                f"explanation has d={e.d}, segmentation d={segmentation.d}"
            )
    x = np.asarray(x, dtype=np.float64)
    check_scale("epsilon", epsilon)
    key = (norm, m, x.shape[0], seed)
    ball = (balls or OneSlot()).get(key, lambda: unit_ball(*key))
    blocks = []  # each evaluated block's offsets, in order

    def evaluate_then_offsets(model: ModelSpec, points: np.ndarray) -> np.ndarray:
        y = evaluate(model, points)
        points -= x  # evaluated, so the block's points become its offsets in place
        blocks.append(feature_offsets(points, segmentation))
        return y

    f = evaluate_blocks(model, m, lambda rows: ball.points(x, epsilon, rows),
                        evaluate_then_offsets)
    offsets = np.concatenate(blocks)
    fidelities = []
    for e in explanations:
        surrogate = e.intercept + offsets @ e.w
        mse = float(np.mean((f - surrogate) ** 2))
        fidelities.append(1.0 / (1.0 + mse))
    return fidelities


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank (scipy's rankdata default)."""
    s = np.sort(a)
    # a value first found at 0-based l and last at r - 1 ranks (l + 1 + r) / 2
    return (np.searchsorted(s, a, "left") + np.searchsorted(s, a, "right") + 1) / 2


def explanation_distance(e1: Explanation, e2: Explanation) -> dict[str, float]:
    """{"mse", "mae", "pearson", "spearman"} between two attribution vectors. A
    correlation is 0.0, not NaN, where either vector is constant; the ranks of a
    vector that is not constant are not constant either."""
    if e1.d != e2.d:
        raise DimensionMismatch(f"dimensions differ: {e1.d} vs {e2.d}")
    if e1.d < 2:
        raise ValueError("distances need d >= 2")
    a, b = e1.w, e2.w
    diff = a - b
    mse = float(np.mean(diff**2))
    mae = float(np.mean(np.abs(diff)))
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return {"mse": mse, "mae": mae, "pearson": 0.0, "spearman": 0.0}
    pearson = float(np.corrcoef(a, b)[0, 1])
    ra, rb = _average_ranks(a), _average_ranks(b)
    spearman = float(np.corrcoef(ra, rb)[0, 1])
    return {"mse": mse, "mae": mae, "pearson": pearson, "spearman": spearman}
