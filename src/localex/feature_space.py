"""Interpretable feature spaces: segmentations, references, and lifts.

Raw inputs live in R^D (flattened images or plain vectors); explanations live
on d segments. Binary masks swap whole segments against a reference; continuous
offsets are broadcast additively, one offset per segment.

A lift of an n x d batch returns its n x D block in column-major (Fortran)
order: it is built as the D x n gather of the design's columns and handed back
transposed. That is the layout numpy's last-axis fancy indexing has always
given these blocks, and it is part of the output: a model's matrix product
reads a column-major block through another BLAS kernel than a row-major one,
and the two can differ in the last bits of the responses. Both lifts gather
with np.take(mode="clip") straight into that D x n array: a Segmentation's
ids are all in range, and in the default mode a take given an out gathers
into a buffer of its own first and then copies it.
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


def _lifted(seg: Segmentation, n: int, out: np.ndarray | None) -> np.ndarray:
    """The D x n array a lift of n samples fills: out, checked, or a new one."""
    if out is None:
        return np.empty((seg.size, n))
    if out.shape != (seg.size, n) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {seg.size} x {n} float64 array")
    return out


def reconstruct_binary(
    x: np.ndarray, r: Reference, seg: Segmentation, zprime: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Lift an n x d batch of binary masks to n x D points: x where the
    segment is on, the reference where it is off. out, when given, is a
    C-contiguous D x n float64 array that receives the points, and its
    transpose is returned."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(zprime)
    if x.shape != (seg.size,) or r.values.shape != (seg.size,):
        raise DimensionMismatch("x and reference must have the segmentation's raw length")
    if z.ndim != 2 or z.shape[1] != seg.d:
        raise DimensionMismatch(f"masks must be n x {seg.d}, got shape {z.shape}")
    z = as_masks(z, "binary reconstruction requires a 0/1 mask")
    lifted = _lifted(seg, len(z), out)
    bits, xb, rb = lifted.view(np.uint64), x.view(np.uint64), r.values.view(np.uint64)
    # a branch-free select on the values' bits: every bit set where a segment is
    # kept, none where it is dropped, then x's bits through that mask, r's elsewhere
    keep = np.ascontiguousarray(z.T, dtype=np.uint64)  # d x n
    np.negative(keep, out=keep)
    np.take(keep, seg.assignment, axis=0, out=bits, mode="clip")
    np.bitwise_and(bits, (xb ^ rb)[:, None], out=bits)
    np.bitwise_xor(bits, rb[:, None], out=bits)
    return lifted.T


def reconstruct_continuous(
    x: np.ndarray, seg: Segmentation, zprime: np.ndarray, out: np.ndarray | None = None,
) -> np.ndarray:
    """Lift an n x d batch of continuous offsets to n x D points: each
    segment's offset added to all its raw indices. out is as for
    reconstruct_binary."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(zprime, dtype=np.float64)
    if x.shape != (seg.size,):
        raise DimensionMismatch(f"x has length {x.size}, segmentation expects {seg.size}")
    if z.ndim != 2 or z.shape[1] != seg.d:
        raise DimensionMismatch(f"offsets must be n x {seg.d}, got shape {z.shape}")
    lifted = _lifted(seg, len(z), out)
    np.take(np.ascontiguousarray(z.T), seg.assignment, axis=0, out=lifted, mode="clip")
    np.add(lifted, x[:, None], out=lifted)  # x_i + z_j, one addition per element as before
    return lifted.T


def offset_projection(seg: Segmentation) -> np.ndarray:
    """The D x d matrix feature_offsets multiplies by: column j averages
    segment j's raw indices."""
    counts = seg.counts().astype(np.float64)
    basis = np.zeros((seg.size, seg.d))
    basis[np.arange(seg.size), seg.assignment] = 1.0 / counts[seg.assignment]
    return basis


def feature_offsets(delta: np.ndarray, seg: Segmentation,
                    projection: np.ndarray | None = None) -> np.ndarray:
    """Project raw-space deltas onto feature space: per-segment mean of delta.
    projection, when given, is offset_projection(seg), made once by a caller
    that projects many blocks.

    Left inverse of reconstruct_continuous in the sense that a broadcast offset
    projects back to itself.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape[-1] != seg.size:
        raise DimensionMismatch(f"delta width {delta.shape[-1]} != D={seg.size}")
    return delta @ (offset_projection(seg) if projection is None else projection)

