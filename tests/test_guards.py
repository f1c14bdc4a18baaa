"""Argument guards that no other test reaches: each raises its error type with
its message for one bad argument."""
import re

import numpy as np
import pytest

from localex.errors import DimensionMismatch
from localex.explain import Explanation, Lime
from localex.feature_space import (Reference, Segmentation, feature_offsets, mean_reference,
                                   reconstruct_binary, reconstruct_continuous,
                                   singleton_segments)
from localex.harness import json_dumps
from localex.metrics import explanation_distance, local_fidelity, top_k_jaccard
from localex.models import Linear
from localex.sampling import (UniformBinary, Unit, batch_weights, binomial_pmf, draw,
                              expected_weight_uniform)
from localex.solver import RidgeProblem

SEG2 = singleton_segments(2)
LINEAR2 = Linear(np.ones(2), 0.0)


def exp_of(d):
    return Explanation(np.arange(float(d)), 0.0, None, Lime(1.0), 10, 0, 1.0)


GUARDS = {
    "segmentation-not-flat": (lambda: Segmentation(np.zeros((2, 2), dtype=int), 1),
                              ValueError, "flat vector of segment ids"),
    "segmentation-d-zero": (lambda: Segmentation(np.array([0]), 0),
                            ValueError, "d must be >= 1, got 0"),
    "reference-not-flat": (lambda: Reference(np.zeros((2, 2))),
                           ValueError, "reference values must be a flat vector"),
    "mean-reference-width": (lambda: mean_reference(np.zeros(3), SEG2),
                             DimensionMismatch, "x has length 3, segmentation expects 2"),
    "binary-lift-x-width": (lambda: reconstruct_binary(np.zeros(3), Reference(np.zeros(3)),
                                                       SEG2, np.ones((1, 2))),
                            DimensionMismatch, "must have the segmentation's raw length"),
    "binary-lift-one-mask": (lambda: reconstruct_binary(np.zeros(2), Reference(np.zeros(2)),
                                                        SEG2, np.ones(2)),
                             DimensionMismatch, "masks must be n x 2, got shape (2,)"),
    "continuous-lift-x-width": (lambda: reconstruct_continuous(np.zeros(3), SEG2,
                                                               np.zeros((1, 2))),
                                DimensionMismatch, "x has length 3, segmentation expects 2"),
    "continuous-lift-offset-width": (lambda: reconstruct_continuous(np.zeros(2), SEG2,
                                                                    np.zeros((1, 3))),
                                     DimensionMismatch, "offsets must be n x 2, got shape (1, 3)"),
    "feature-offsets-width": (lambda: feature_offsets(np.zeros((1, 3)), SEG2),
                              DimensionMismatch, "delta width 3 != D=2"),
    "ridge-design-not-matrix": (lambda: RidgeProblem(np.zeros(3), np.zeros(3), np.ones(3), 0.0),
                                ValueError, "design must be an n x d matrix"),
    "ridge-responses-length": (lambda: RidgeProblem(np.zeros((3, 2)), np.zeros(2), np.ones(3),
                                                    0.0),
                               ValueError, "responses and sample_weights must have length n"),
    "ridge-lambda-negative": (lambda: RidgeProblem(np.zeros((3, 2)), np.zeros(3), np.ones(3),
                                                   -1.0),
                              ValueError, "lambda must be >= 0, got -1.0"),
    "jaccard-k-above-d": (lambda: top_k_jaccard([exp_of(2), exp_of(2)], 3),
                          ValueError, "k must be in [1, 2], got 3"),
    "fidelity-explanation-width": (lambda: local_fidelity(LINEAR2, np.zeros(2), [exp_of(3)],
                                                          SEG2, 0.5, "l2", 8, 0),
                                   DimensionMismatch, "explanation has d=3, segmentation d=2"),
    "distance-d-one": (lambda: explanation_distance(exp_of(1), exp_of(1)),
                       ValueError, "distances need d >= 2"),
    "draw-n-zero": (lambda: draw(UniformBinary(2), 0, 0), ValueError, "n must be >= 1, got 0"),
    "draw-unknown-law": (lambda: draw(Unit(), 1, 0), TypeError, "unknown distribution spec"),
    "weights-not-matrix": (lambda: batch_weights(Unit(), np.zeros(2)),
                           ValueError, "batch_weights takes an n x d matrix"),
    "weights-unknown-kernel": (lambda: batch_weights(UniformBinary(2), np.zeros((1, 2))),
                               TypeError, "unknown weight spec"),
    "binomial-pmf-k-above-d": (lambda: binomial_pmf(2, 1.0, 3),
                               ValueError, "k must be in [0, 2], got 3"),
    "expected-weight-d-zero": (lambda: expected_weight_uniform(0, 1.0),
                               ValueError, "d must be >= 1, got 0"),
    "json-dumps-object": (lambda: json_dumps(object()), TypeError, "cannot serialize object"),
}


@pytest.mark.parametrize("call,error,fragment", GUARDS.values(), ids=GUARDS.keys())
def test_argument_guard_raises_its_error(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
