"""Tests for the FrequencyGrid value object, the batched dense_grid API and
the grid-evaluation memoization layer (repro.core.grid / memo / operators)."""

import numpy as np
import pytest

from repro._errors import ValidationError
from repro.core.grid import FrequencyGrid, as_omega_grid, as_s_grid
from repro.core.memo import cache_stats, clear_cache, grid_cache
from repro.core.operators import (
    FeedbackOperator,
    IdentityOperator,
    IsfIntegrationOperator,
    LTIOperator,
    MultiplicationOperator,
    ParallelOperator,
    SamplingOperator,
    ScaledOperator,
    SeriesOperator,
    default_element_order,
)
from repro.core.sweep import sweep_element, sweep_matrix
from repro.lti.transfer import TransferFunction
from repro.signals.fourier import FourierSeries
from repro.signals.isf import ImpulseSensitivity

W0 = 2 * np.pi


class TestFrequencyGrid:
    def test_linear_constructor(self):
        grid = FrequencyGrid.linear(1.0, 5.0, 5)
        assert np.allclose(grid.omega, [1, 2, 3, 4, 5])
        assert np.allclose(grid.s, 1j * grid.omega)
        assert len(grid) == 5

    def test_log_constructor(self):
        grid = FrequencyGrid.log(0.01, 100.0, 5)
        assert np.allclose(grid.omega, np.logspace(-2, 2, 5))

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            FrequencyGrid.log(0.0, 1.0, 4)
        with pytest.raises(ValidationError):
            FrequencyGrid.log(2.0, 1.0, 4)

    def test_baseband_spans_alias_band(self):
        grid = FrequencyGrid.baseband(W0, points=30)
        assert grid.omega[0] == pytest.approx(1e-3 * W0)
        assert grid.omega[-1] == pytest.approx(0.499 * W0)

    def test_immutable(self):
        grid = FrequencyGrid.linear(1.0, 2.0, 3)
        with pytest.raises((ValueError, AttributeError)):
            grid.omega[0] = 9.0
        with pytest.raises(AttributeError):
            grid.points = 7

    def test_views_are_read_only(self):
        """Both exposed arrays refuse writes — slices of them may be shared
        across cached/batched results, so aliasing a writable buffer out of a
        grid would let one consumer corrupt another's answer."""
        grid = FrequencyGrid.linear(1.0, 2.0, 4)
        assert not grid.omega.flags.writeable
        assert not grid.s.flags.writeable
        with pytest.raises(ValueError):
            grid.omega[:] = 0.0
        with pytest.raises(ValueError):
            grid.s[1] = 0.0

    def test_s_is_computed_once_and_cached(self):
        grid = FrequencyGrid.linear(1.0, 2.0, 4)
        assert grid.s is grid.s
        assert np.allclose(grid.s, 1j * grid.omega)

    def test_equality_and_hash(self):
        a = FrequencyGrid.linear(1.0, 2.0, 4)
        b = FrequencyGrid.linear(1.0, 2.0, 4)
        c = FrequencyGrid.linear(1.0, 2.0, 5)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_iteration_and_indexing(self):
        grid = FrequencyGrid([1.0, 2.0, 3.0])
        assert list(grid) == [1.0, 2.0, 3.0]
        assert grid[-1] == 3.0

    def test_coercers_accept_grid_and_raw(self):
        grid = FrequencyGrid([0.5, 1.5])
        assert np.array_equal(as_omega_grid("omega", grid), grid.omega)
        assert np.array_equal(as_omega_grid("omega", [0.5, 1.5]), [0.5, 1.5])
        assert np.array_equal(as_s_grid("s", grid), 1j * grid.omega)
        assert np.array_equal(as_s_grid("s", [1j, 2j]), [1j, 2j])

    def test_as_s_grid_validates(self):
        with pytest.raises(ValidationError):
            as_s_grid("s", [])
        with pytest.raises(ValidationError):
            as_s_grid("s", [[1j, 2j]])
        with pytest.raises(ValidationError):
            as_s_grid("s", [np.nan * 1j])


def _loop_operator():
    lf = LTIOperator(TransferFunction([2.0, 1.0], [1.0, 3.0, 1.0]), W0)
    vco = IsfIntegrationOperator(
        ImpulseSensitivity.from_coefficients([0.1j, 1.0, -0.1j], W0)
    )
    return SeriesOperator(vco, SeriesOperator(lf, SamplingOperator(W0)))


def _operator_zoo():
    tf = TransferFunction([1.0], [1.0, 1.0])
    loop = _loop_operator()
    return {
        "identity": IdentityOperator(W0),
        "lti": LTIOperator(tf, W0),
        "mult": MultiplicationOperator(FourierSeries([0.3, 1.0, 0.5], W0)),
        "sampling": SamplingOperator(W0, offset=0.05),
        "isf": IsfIntegrationOperator(
            ImpulseSensitivity.from_coefficients([0.2j, 1.0, -0.2j], W0)
        ),
        "series": loop,
        "parallel": ParallelOperator(loop, ScaledOperator(LTIOperator(tf, W0), 0.5)),
        "scaled": ScaledOperator(loop, 1.5 - 0.5j),
        "feedback": FeedbackOperator(loop),
    }


class TestDenseGrid:
    @pytest.mark.parametrize("name", sorted(_operator_zoo()))
    def test_matches_scalar_dense(self, name):
        op = _operator_zoo()[name]
        clear_cache()
        s = 1j * np.linspace(0.02, 2.9, 11) + 0.1
        for order in (0, 1, 3):
            stack = op.dense_grid(s, order)
            assert stack.shape == (s.size, 2 * order + 1, 2 * order + 1)
            for i in range(s.size):
                ref = op.dense(complex(s[i]), order)
                scale = max(float(np.max(np.abs(ref))), 1e-300)
                assert np.max(np.abs(stack[i] - ref)) <= 1e-9 * scale

    def test_accepts_frequency_grid(self):
        op = _operator_zoo()["lti"]
        grid = FrequencyGrid.linear(0.1, 1.0, 4)
        stack = op.dense_grid(grid, 1)
        assert np.allclose(stack, op.dense_grid(grid.s, 1))

    def test_result_read_only(self):
        op = _operator_zoo()["mult"]
        stack = op.dense_grid(np.array([1j]), 1)
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 99.0


class TestGridCache:
    def test_repeat_evaluation_hits(self):
        op = _loop_operator()
        clear_cache()
        s = 1j * np.linspace(0.1, 1.0, 8)
        first = op.dense_grid(s, 2)
        before = cache_stats()["hits"]
        second = op.dense_grid(s, 2)
        assert cache_stats()["hits"] > before
        assert second is first  # the cached block itself

    def test_distinct_grids_miss(self):
        op = _loop_operator()
        clear_cache()
        a = op.dense_grid(1j * np.linspace(0.1, 1.0, 4), 1)
        b = op.dense_grid(1j * np.linspace(0.1, 1.1, 4), 1)
        assert a is not b

    def test_value_identical_operators_share_entries(self):
        """Content-fingerprinted primitives hit across distinct instances."""
        tf_a = TransferFunction([1.0], [1.0, 2.0])
        tf_b = TransferFunction([1.0], [1.0, 2.0])
        clear_cache()
        s = 1j * np.linspace(0.1, 1.0, 5)
        first = LTIOperator(tf_a, W0).dense_grid(s, 1)
        second = LTIOperator(tf_b, W0).dense_grid(s, 1)
        assert second is first

    def test_clear_cache(self):
        op = _loop_operator()
        op.dense_grid(np.array([1j]), 1)
        clear_cache()
        stats = cache_stats()
        assert stats["entries"] == 0

    def test_disabled_cache_still_correct(self):
        op = _loop_operator()
        clear_cache()
        try:
            grid_cache.configure(enabled=False)
            s = np.array([0.5j, 1.0j])
            a = op.dense_grid(s, 1)
            b = op.dense_grid(s, 1)
            assert a is not b
            assert np.allclose(a, b)
        finally:
            grid_cache.configure(enabled=True)


class TestSweepIntegration:
    def test_sweep_matrix_matches_dense(self):
        op = _loop_operator()
        omega = np.linspace(0.05, 1.2, 6)
        stack = sweep_matrix(op, omega, 2)
        for i, w in enumerate(omega):
            assert np.allclose(stack[i], op.dense(1j * w, 2), rtol=1e-9)

    def test_sweep_accepts_frequency_grid(self):
        op = _loop_operator()
        grid = FrequencyGrid.linear(0.05, 1.2, 6)
        assert np.allclose(
            sweep_matrix(op, grid, 2), sweep_matrix(op, grid.omega, 2)
        )
        assert np.allclose(
            sweep_element(op, grid, 1, 0, order=2),
            sweep_element(op, grid.omega, 1, 0, order=2),
        )


class TestDefaultOrderUnification:
    def test_canonical_rule(self):
        assert default_element_order(0, 0) == 1
        assert default_element_order(2, -3) == 3
        assert default_element_order(-1, 0) == 1

    def test_element_and_sweep_element_agree(self):
        op = _loop_operator()
        omega = np.array([0.3])
        swept = sweep_element(op, omega, 0, 0)
        direct = op.element(1j * omega[0], 0, 0, order=default_element_order(0, 0))
        assert swept[0] == pytest.approx(direct)


class TestScalarMultiplication:
    def test_accepts_0d_numpy_array(self):
        op = IdentityOperator(W0)
        scaled = op * np.array(2.0)
        assert isinstance(scaled, ScaledOperator)
        assert np.allclose(scaled.dense(0.1j, 1), 2.0 * np.eye(3))
        scaled_left = np.float64(3.0) * op
        assert np.allclose(scaled_left.dense(0.1j, 1), 3.0 * np.eye(3))

    def test_rejects_nonscalar_arrays(self):
        op = IdentityOperator(W0)
        with pytest.raises(TypeError):
            op * np.array([1.0, 2.0])
        with pytest.raises(TypeError):
            op * "2.0"
