"""Structured lazy-evaluation layer: kind algebra, caching, and the
scalar-``dense`` fallback of ``evaluate()``.

The arithmetic itself is cross-checked against the dense oracle by
``tests/property/test_prop_structured.py``; this module pins the *shape*
of the API — which structure tag each composition produces, how the memo
separates the two evaluation flavors, and how subclasses written against
the scalar ``dense`` protocol keep working.
"""

import numpy as np
import pytest

from repro._errors import ValidationError
from repro.core import memo
from repro.core.memo import grid_cache
from repro.core.operators import (
    FeedbackOperator,
    HarmonicOperator,
    IdentityOperator,
    IsfIntegrationOperator,
    LTIOperator,
    MultiplicationOperator,
    SamplingOperator,
)
from repro.core.structured import StructuredGrid
from repro.lti.transfer import TransferFunction
from repro.obs import spans as obs
from repro.signals.fourier import FourierSeries
from repro.signals.isf import ImpulseSensitivity

W0 = 2 * np.pi
S = 1j * np.linspace(0.3, 2.8, 5)


@pytest.fixture(autouse=True)
def _clean_cache():
    grid_cache.clear()
    yield
    grid_cache.clear()


def _lti(pole=1.0, gain=1.0):
    return LTIOperator(TransferFunction([gain], [1.0, pole]), W0)


def _mult():
    return MultiplicationOperator(FourierSeries([0.2j, 1.0, -0.3], W0))


def _isf():
    return IsfIntegrationOperator(
        ImpulseSensitivity.from_coefficients([0.1, 1.0, 0.1], W0)
    )


class TestStructureTags:
    def test_primitive_kinds(self):
        assert IdentityOperator(W0).evaluate(S, 2).kind == "diagonal"
        assert _lti().evaluate(S, 2).kind == "diagonal"
        assert _mult().evaluate(S, 2).kind == "banded"
        assert _isf().evaluate(S, 2).kind == "banded"
        assert SamplingOperator(W0).evaluate(S, 2).kind == "rank_one"

    def test_composition_kinds(self):
        lti, samp, mult = _lti(), SamplingOperator(W0), _mult()
        assert (lti @ lti).evaluate(S, 2).kind == "diagonal"
        assert (lti @ samp).evaluate(S, 2).kind == "rank_one"
        assert (samp @ mult).evaluate(S, 2).kind == "rank_one"
        assert (mult @ mult).evaluate(S, 2).kind == "banded"
        assert (mult + lti).evaluate(S, 2).kind == "banded"
        assert (lti + lti).evaluate(S, 2).kind == "diagonal"
        assert (2.0 * samp).evaluate(S, 2).kind == "rank_one"
        assert (samp + samp).evaluate(S, 2).kind == "dense"

    def test_feedback_kinds(self):
        lti, samp = _lti(), SamplingOperator(W0)
        assert FeedbackOperator(lti @ samp).evaluate(S, 2).kind == "rank_one"
        assert FeedbackOperator(lti).evaluate(S, 2).kind == "diagonal"
        assert FeedbackOperator(_mult()).evaluate(S, 2).kind == "dense"

    def test_band_merge_collapses_to_diagonal_when_only_center(self):
        only_center = MultiplicationOperator(FourierSeries([2.0], W0))
        assert only_center.evaluate(S, 2).kind == "diagonal"


class TestStructuredGridContainer:
    def test_constructors_validate(self):
        with pytest.raises(ValidationError):
            StructuredGrid.banded({}, order=1)
        with pytest.raises(ValidationError):
            StructuredGrid.rank_one(np.ones((2, 3)), np.ones((2, 5)), order=1)
        with pytest.raises(ValidationError):
            StructuredGrid.dense(np.ones((2, 3, 5)), order=1)

    def test_arrays_are_read_only(self):
        grid = SamplingOperator(W0).evaluate(S, 2)
        dense = grid.to_dense()
        assert not dense.flags.writeable
        with pytest.raises(ValueError):
            dense[0, 0, 0] = 1.0

    def test_element_grid_bounds(self):
        grid = _lti().evaluate(S, 2)
        assert grid.element_grid(0, 0).shape == S.shape
        with pytest.raises(ValidationError):
            grid.element_grid(3, 0)

    def test_shape_and_npoints(self):
        grid = _mult().evaluate(S, 3)
        assert grid.shape == (S.size, 7, 7)
        assert grid.npoints == S.size
        assert grid.size == 7

    def test_incompatible_operands_raise(self):
        a = _lti().evaluate(S, 2)
        b = _lti().evaluate(S, 3)
        with pytest.raises(ValidationError):
            a @ b
        with pytest.raises(TypeError):
            a @ np.ones((5, 5, 5))


class TestMemoFlavors:
    def test_structured_and_dense_entries_do_not_collide(self):
        op = _lti()
        dense = np.asarray(op.dense_grid(S, 2))
        structured = op.evaluate(S, 2)
        stats = memo.cache_snapshot()
        assert stats["misses"] == 2  # one entry per flavor, no cross-hit
        np.testing.assert_allclose(np.asarray(structured.to_dense()), dense)

    def test_structured_entries_hit_per_backend(self):
        op = _lti()
        first = op.evaluate(S, 2)
        again = op.evaluate(S, 2)
        assert first is again  # cached StructuredGrid object round-trips
        stats = memo.cache_snapshot()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_scalar_dense_bypasses_the_cache(self):
        op = _lti()
        op.dense(0.5j, 2)
        op.dense(0.5j, 2)
        stats = memo.cache_snapshot()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_scalar_dense_is_writable(self):
        out = _lti().dense(0.5j, 2)
        out[0, 0] = 123.0  # fresh copy, not a frozen cache entry


class _LegacyScalarOperator(HarmonicOperator):
    """Oldest style: only the scalar ``dense`` protocol."""

    def dense(self, s, order):
        size = 2 * order + 1
        return np.eye(size, dtype=complex) * s

    def fingerprint(self):
        return (type(self).__name__, self._omega0)


class _NoKernelOperator(HarmonicOperator):
    def fingerprint(self):
        return (type(self).__name__, self._omega0)


class TestLegacyOverrides:
    def test_legacy_scalar_override_still_evaluates(self):
        op = _LegacyScalarOperator(W0)
        grid = op.evaluate(S, 1)
        assert grid.kind == "dense"
        np.testing.assert_allclose(grid.element_grid(0, 0), S)

    def test_no_kernel_raises_type_error(self):
        with pytest.raises(TypeError, match="_structured_grid"):
            _NoKernelOperator(W0).evaluate(S, 1)


class TestObsIntegration:
    @pytest.fixture(autouse=True)
    def _isolated_obs(self):
        was_enabled = obs.enabled()
        obs.disable()
        obs.reset()
        yield
        (obs.enable if was_enabled else obs.disable)()
        obs.reset()

    def _counter_total(self, snap, prefix):
        return sum(
            entry["count"]
            for name, entry in snap["counters"].items()
            if name.startswith(prefix)
        )

    def test_evaluate_span_and_structured_counters(self):
        obs.enable()
        op = FeedbackOperator(_lti() @ SamplingOperator(W0))
        op.evaluate(S, 2)
        snap = obs.snapshot()
        assert any(name.startswith("core.evaluate") for name in snap["spans"])
        assert self._counter_total(snap, "core.structured.matmul") >= 1
        assert self._counter_total(snap, "core.structured.feedback") >= 1
        assert self._counter_total(snap, "core.rank_one.smw_closed_loop_grid") == 1

    def test_dense_feedback_fallback_is_counted(self):
        obs.enable()
        FeedbackOperator(_mult()).evaluate(S, 2)
        snap = obs.snapshot()
        assert self._counter_total(snap, "core.structured.feedback_dense") == 1

    def test_singular_rank_one_closure_flags_health_not_raises(self):
        obs.enable()
        # At order 1 the sampler's l-vectors are ones of length 3, so a
        # gain of -1/3 makes lambda = row^T column = -1 at every point:
        # 1 + lambda = 0 -> the closure divides by zero.  The dense solve
        # returns inf/nan there; the SMW path must match, not raise.
        loop = SamplingOperator(W0) * (-1.0 / 3.0)
        closed = FeedbackOperator(loop).evaluate(S, 1)
        assert not np.all(np.isfinite(closed.to_dense()))
        events = [
            name for name in obs.snapshot()["events"]
            if name.startswith("health.rank_one.near_singular")
        ]
        assert events
