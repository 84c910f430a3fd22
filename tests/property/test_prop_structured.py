"""Property: ``evaluate()`` (structured, symbolically composed) equals the
brute-force dense oracle for every operator class, across random
compositions — series, parallel, feedback, scaled."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memo import clear_cache
from repro.core.operators import (
    FeedbackOperator,
    IdentityOperator,
    SamplingOperator,
    ScaledOperator,
)
from repro.core.structured import StructuredGrid
from tests.property.test_prop_grid_eval import (
    W0,
    operator_trees,
    primitive_operators,
    s_grids,
)

#: Structured kernels reorder the same float ops the dense path performs,
#: so agreement is round-off-grade: 1e-12 relative on well-conditioned
#: draws (the ISSUE's equivalence bar), not mere 1e-9.
RTOL = 1e-12


def _assert_structured_matches_dense(op, s_arr, order, rtol=RTOL):
    clear_cache()
    structured = op.evaluate(s_arr, order)
    assert isinstance(structured, StructuredGrid)
    assert structured.kind in ("diagonal", "banded", "rank_one", "dense")
    stack = np.asarray(structured.to_dense())
    assert stack.shape == (s_arr.size, 2 * order + 1, 2 * order + 1)
    clear_cache()
    reference = np.asarray(op.dense_grid(s_arr, order))
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    assert np.allclose(stack, reference, rtol=rtol, atol=rtol * scale)


class TestStructuredEquivalenceProperty:
    @given(op=primitive_operators(), s=s_grids(), order=st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_primitives(self, op, s, order):
        _assert_structured_matches_dense(op, s, order)

    @given(op=operator_trees(), s=s_grids(), order=st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_nested_composites(self, op, s, order):
        _assert_structured_matches_dense(op, s, order)

    @given(op=operator_trees(depth=1), s=s_grids(), order=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_feedback_closures(self, op, s, order):
        closed = FeedbackOperator(op)
        # Skip draws where I + G is effectively singular at a grid point:
        # the SMW scalar closure and the dense solve then both amplify
        # round-off and the comparison is meaningless.  Conditioning also
        # bounds how much of the 1e-12 budget the solve itself eats, so
        # feedback gets a correspondingly relaxed tolerance.
        size = 2 * order + 1
        worst = 1.0
        for si in s:
            g = op.dense(complex(si), order)
            cond = np.linalg.cond(np.eye(size) + g)
            if cond > 1e8:
                return
            worst = max(worst, cond)
        _assert_structured_matches_dense(closed, s, order, rtol=RTOL * worst)

    @given(
        eps=st.floats(1e-6, 1e-2),
        s=s_grids(),
        order=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_feedback_near_singular_diagonal(self, eps, s, order):
        """``I + G = eps * I``: near-singular but exactly conditioned — the
        diagonal closure and the dense solve must still agree."""
        near = ScaledOperator(IdentityOperator(W0), eps - 1.0)
        _assert_structured_matches_dense(FeedbackOperator(near), s, order)

    @given(
        gain=st.floats(-0.999, 4.0),
        s=s_grids(),
        order=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_feedback_rank_one_vs_dense(self, gain, s, order):
        """The paper's own closure: a scaled sampler closes through SMW."""
        loop = ScaledOperator(SamplingOperator(W0), gain * 2 * np.pi / W0)
        closed = FeedbackOperator(loop)
        assert closed.evaluate(s, order).kind == "rank_one"
        _assert_structured_matches_dense(closed, s, order, rtol=1e-11)
