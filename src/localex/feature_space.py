"""Interpretable feature spaces: segmentations, references, and lifts.

Raw inputs live in R^D (flattened images or plain vectors); explanations live
on d segments. Binary masks swap whole segments against a reference; continuous
offsets are broadcast additively, one offset per segment.

A lift of an n x d batch returns its n x D block in column-major (Fortran)
order: it is built as the D x n gather of the design's columns and handed back
transposed. That is the layout numpy's last-axis fancy indexing has always
given these blocks, and it is part of the output: a model's matrix product
reads a column-major block through another BLAS kernel than a row-major one,
and the two can differ in the last bits of the responses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidGrid
from .sampling import as_masks


@dataclass(frozen=True)
class Segmentation:
    """Assignment of each raw index to one of d non-empty segments."""

    assignment: np.ndarray
    d: int

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        if a.ndim != 1:
            raise ValueError("assignment must be a flat vector of segment ids")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        present = np.unique(a)
        if present[0] < 0 or present[-1] >= self.d or present.size != self.d:
            raise ValueError("every segment id in 0..d-1 must appear at least once")

    @property
    def size(self) -> int:
        return self.assignment.size

    def counts(self) -> np.ndarray:
        """Number of raw indices per segment."""
        return np.bincount(self.assignment, minlength=self.d)


@dataclass(frozen=True)
class Reference:
    """Per-raw-index values substituted for dropped segments."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("reference values must be a flat vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("reference values must be finite")


def grid_segment(height: int, width: int, channels: int, rows: int, cols: int) -> Segmentation:
    """Partition an image into rows x cols rectangular cells.

    Remainder pixels join the last cell of each axis; all channels of a pixel
    share its segment. Raw indices follow row-major (height, width, channels)
    flattening.
    """
    if min(height, width, channels, rows, cols) < 1:
        raise InvalidGrid("all grid parameters must be positive")
    if rows > height or cols > width:
        raise InvalidGrid(
            f"grid {rows}x{cols} does not fit a {height}x{width} image"
        )
    cell_h = height // rows
    cell_w = width // cols
    row_cell = np.minimum(np.arange(height) // cell_h, rows - 1)
    col_cell = np.minimum(np.arange(width) // cell_w, cols - 1)
    per_pixel = row_cell[:, None] * cols + col_cell[None, :]
    assignment = np.repeat(per_pixel.reshape(-1), channels)
    return Segmentation(assignment, rows * cols)


def singleton_segments(dim: int) -> Segmentation:
    """One segment per raw feature (plain-vector default)."""
    return Segmentation(np.arange(dim), dim)


def mean_reference(x: np.ndarray, seg: Segmentation) -> Reference:
    """Reference that replaces each segment by its mean over all its raw indices."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (seg.size,):
        raise DimensionMismatch(f"x has length {x.size}, segmentation expects {seg.size}")
    sums = np.bincount(seg.assignment, weights=x, minlength=seg.d)
    means = sums / seg.counts()
    return Reference(means[seg.assignment])


def reconstruct_binary(
    x: np.ndarray, r: Reference, seg: Segmentation, zprime: np.ndarray
) -> np.ndarray:
    """Lift an n x d batch of binary masks to n x D points: x where the
    segment is on, the reference where it is off."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(zprime)
    if x.shape != (seg.size,) or r.values.shape != (seg.size,):
        raise DimensionMismatch("x and reference must have the segmentation's raw length")
    if z.ndim != 2 or z.shape[1] != seg.d:
        raise DimensionMismatch(f"masks must be n x {seg.d}, got shape {z.shape}")
    z = as_masks(z, "binary reconstruction requires a 0/1 mask")
    keep = np.take(z.T, seg.assignment, axis=0)  # D x n
    return np.where(keep, x[:, None], r.values[:, None]).T


def reconstruct_continuous(
    x: np.ndarray, seg: Segmentation, zprime: np.ndarray
) -> np.ndarray:
    """Lift an n x d batch of continuous offsets to n x D points: each
    segment's offset added to all its raw indices."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(zprime, dtype=np.float64)
    if x.shape != (seg.size,):
        raise DimensionMismatch(f"x has length {x.size}, segmentation expects {seg.size}")
    if z.ndim != 2 or z.shape[1] != seg.d:
        raise DimensionMismatch(f"offsets must be n x {seg.d}, got shape {z.shape}")
    lifted = np.take(z.T, seg.assignment, axis=0)  # D x n
    lifted += x[:, None]  # x_i + z_j, one addition per element as before
    return lifted.T


def feature_offsets(delta: np.ndarray, seg: Segmentation) -> np.ndarray:
    """Project raw-space deltas onto feature space: per-segment mean of delta.

    Left inverse of reconstruct_continuous in the sense that a broadcast offset
    projects back to itself.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape[-1] != seg.size:
        raise DimensionMismatch(f"delta width {delta.shape[-1]} != D={seg.size}")
    counts = seg.counts().astype(np.float64)
    basis = np.zeros((seg.size, seg.d))
    basis[np.arange(seg.size), seg.assignment] = 1.0 / counts[seg.assignment]
    return delta @ basis

