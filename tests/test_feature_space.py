import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import asset, image_case
from localex.errors import InvalidGrid
from localex.feature_space import (
    Reference,
    Segmentation,
    feature_offsets,
    grid_segment,
    mean_reference,
    reconstruct_binary,
    reconstruct_continuous,
    singleton_segments,
)
from localex.harness import load_input
from localex.models import evaluate, load_model
from oracles import lift_direct


def test_segmentation_validates_its_assignment():
    Segmentation(np.array([0, 1, 0, 1]), 2)
    with pytest.raises(ValueError):
        Segmentation(np.array([0, 2, 0, 2]), 3)  # segment 1 empty
    with pytest.raises(ValueError):
        Segmentation(np.array([0, -1]), 1)


def test_segment_counts():
    seg = Segmentation(np.array([0, 1, 0, 1, 1]), 2)
    assert seg.counts().tolist() == [2, 3]
    assert seg.size == 5


def test_singleton_segments_are_the_identity_partition():
    seg = singleton_segments(4)
    assert seg.d == 4
    assert seg.assignment.tolist() == [0, 1, 2, 3]
    assert seg.counts().tolist() == [1, 1, 1, 1]


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=3))
def test_grid_segment_partitions_every_pixel(h, w, c):
    rows = min(3, h)
    cols = min(2, w)
    seg = grid_segment(h, w, c, rows, cols)
    assert seg.d == rows * cols
    assert seg.size == h * w * c
    assert np.all(seg.counts() >= 1)


def test_grid_segment_layout_on_a_4x4_image():
    seg = grid_segment(4, 4, 1, 2, 2)
    grid = seg.assignment.reshape(4, 4)
    assert grid[0, 0] == 0 and grid[0, 3] == 1 and grid[3, 0] == 2 and grid[3, 3] == 3
    # channels of one pixel share a segment
    seg3 = grid_segment(4, 4, 3, 2, 2)
    tri = seg3.assignment.reshape(4, 4, 3)
    assert np.all(tri == tri[:, :, :1])


def test_grid_segment_remainder_pixels_join_the_last_cell():
    seg = grid_segment(5, 5, 1, 2, 2)
    grid = seg.assignment.reshape(5, 5)
    assert grid[4, 4] == 3 and grid[2, 2] == 3  # rows 2..4 and cols 2..4 in cell 1,1
    assert seg.counts().sum() == 25


def test_grid_segment_rejects_impossible_grids():
    with pytest.raises(InvalidGrid):
        grid_segment(2, 2, 1, 3, 1)
    with pytest.raises(InvalidGrid):
        grid_segment(0, 4, 1, 1, 1)


def test_reference_must_be_finite():
    with pytest.raises(ValueError):
        Reference(np.array([1.0, np.inf]))


def test_mean_reference_averages_within_segments():
    seg = Segmentation(np.array([0, 0, 1, 1]), 2)
    ref = mean_reference(np.array([1.0, 3.0, 10.0, 20.0]), seg)
    assert ref.values.tolist() == [2.0, 2.0, 15.0, 15.0]


def test_mean_reference_on_singletons_is_the_input_itself():
    x = np.array([0.3, -1.2, 4.0])
    ref = mean_reference(x, singleton_segments(3))
    assert np.array_equal(ref.values, x)


def test_reconstruct_binary_swaps_whole_segments():
    seg = Segmentation(np.array([0, 0, 1, 1]), 2)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    r = Reference(np.zeros(4))
    batch = reconstruct_binary(x, r, seg, np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert batch.tolist() == [[1, 2, 0, 0], [1, 2, 3, 4], [0, 0, 3, 4]]


@pytest.mark.parametrize("mask_shape", [(1, 16), (200, 16)], ids=["one-mask", "batch"])
def test_reconstruct_binary_matches_the_direct_float_formula(mask_shape):
    rng = np.random.default_rng(5)
    seg = grid_segment(16, 16, 3, 4, 4)
    x = rng.normal(size=seg.size)
    r = Reference(rng.normal(size=seg.size))
    z = rng.integers(0, 2, size=mask_shape).astype(np.float64)
    m = z[..., seg.assignment]
    direct = m * x + (1.0 - m) * r.values  # no exact zeros in x or r, so bit-exact
    out = reconstruct_binary(x, r, seg, z)
    assert out.shape == direct.shape and out.tobytes() == direct.tobytes()


@pytest.mark.parametrize("mask_shape", [(1, 16), (300, 16)])
def test_reconstruct_binary_gives_bool_masks_and_their_float_copy_the_same_lift(mask_shape):
    rng = np.random.default_rng(6)
    seg = grid_segment(16, 16, 3, 4, 4)
    x, r = rng.normal(size=seg.size), Reference(rng.normal(size=seg.size))
    masks = rng.random(size=mask_shape) < 0.5
    out = reconstruct_binary(x, r, seg, masks)
    copy = reconstruct_binary(x, r, seg, masks.astype(np.float64))
    assert out.shape == copy.shape and out.strides == copy.strides
    assert out.tobytes("A") == copy.tobytes("A")


@pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
@pytest.mark.parametrize("mask_shape", [(1, 2), (3, 2)], ids=["one-mask", "batch"])
def test_reconstruct_binary_rejects_fractional_masks(bad, mask_shape):
    z = np.ones(mask_shape)
    z.flat[-1] = bad
    with pytest.raises(ValueError, match="0/1 mask"):
        reconstruct_binary(np.ones(2), Reference(np.zeros(2)), singleton_segments(2), z)


def test_reconstruct_continuous_broadcasts_offsets():
    seg = Segmentation(np.array([0, 0, 1, 1]), 2)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    out = reconstruct_continuous(x, seg, np.array([[0.5, -1.0]]))
    assert out.tolist() == [[1.5, 2.5, 2.0, 3.0]]


def _lift_cases():
    """(models, x, segmentation): a linear and an MLP model on a 32x32x3 image
    with an 8x8 grid, and the bundled linear_8x8 model and input on a 4x4 grid."""
    (linear, x, seg), (mlp, _, _) = image_case("linear", 32), image_case("mlp", 32)
    yield (linear, mlp), x, seg
    x8, _ = load_input(asset("input_8x8.json"))
    yield (load_model(asset("linear_8x8.json")),), x8, grid_segment(8, 8, 1, 4, 4)


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "continuous"])
def test_batch_lifts_are_column_major_and_equal_the_direct_lift(binary):
    # the layout is part of the output: a model's product reads a column-major
    # block through another BLAS kernel than a row-major one
    for models, x, seg in _lift_cases():
        rng = np.random.default_rng(seg.size)
        for n in (1, 300, 512):
            if binary:
                z = rng.integers(0, 2, size=(n, seg.d)).astype(np.float64)
                ref = mean_reference(x, seg)
                out, direct = reconstruct_binary(x, ref, seg, z), lift_direct(x, seg, z, ref.values)
            else:
                z = rng.normal(size=(n, seg.d))
                out, direct = reconstruct_continuous(x, seg, z), lift_direct(x, seg, z)
            assert out.shape == (n, seg.size) and out.flags.f_contiguous
            assert np.ascontiguousarray(out).tobytes() == direct.tobytes()
            for model in models:
                assert (evaluate(model, out).tobytes()
                        == evaluate(model, np.asfortranarray(direct)).tobytes())


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_feature_offsets_inverts_the_broadcast_lift(seed):
    rng = np.random.default_rng(seed)
    seg = grid_segment(4, 4, 1, 2, 2)
    zprime = rng.normal(size=(5, seg.d))
    x = rng.normal(size=seg.size)
    lifted = reconstruct_continuous(x, seg, zprime)
    recovered = feature_offsets(lifted - x, seg)
    assert np.allclose(recovered, zprime, atol=1e-12)


def test_feature_offsets_on_singletons_is_the_identity():
    seg = singleton_segments(3)
    delta = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(feature_offsets(delta, seg), delta)

