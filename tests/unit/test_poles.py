"""Tests for repro.pll.poles and AliasedSum.derivative."""

import numpy as np
import pytest

from repro._errors import ConvergenceError
from repro.core.aliasing import AliasedSum
from repro.lti.rational import RationalFunction
from repro.pll.design import design_typical_loop
from repro.pll.poles import dominant_pole, find_closed_loop_poles, refine_pole
from tests.pairing import pair_nearest

W0 = 2 * np.pi


class TestAliasedSumDerivative:
    def test_matches_finite_difference(self):
        f = RationalFunction.from_zpk([-0.3], [-1.0, -2.0, 0.0], 1.0)
        alias = AliasedSum.of(f, W0)
        deriv = alias.derivative()
        s = 0.4 + 0.2j * W0
        h = 1e-6
        fd = (alias(s + h) - alias(s - h)) / (2 * h)
        assert deriv(s) == pytest.approx(fd, rel=1e-6)

    def test_derivative_periodicity(self):
        f = RationalFunction([1.0], [1.0, 1.0, 1.0])
        deriv = AliasedSum.of(f, W0).derivative()
        s = 0.1 + 0.2j
        assert deriv(s + 1j * W0) == pytest.approx(deriv(s), rel=1e-9)


@pytest.fixture(scope="module")
def pll():
    return design_typical_loop(omega0=W0, omega_ug=0.1 * W0)


class TestFindClosedLoopPoles:
    def test_residuals_tiny(self, pll):
        poles = find_closed_loop_poles(pll)
        assert len(poles) == 3
        assert all(p.residual < 1e-9 for p in poles)

    def test_multipliers_match_zdomain(self, pll):
        from repro.baselines.zdomain import closed_loop_z, sampled_open_loop

        poles = find_closed_loop_poles(pll)
        z_poles = closed_loop_z(sampled_open_loop(pll)).poles()
        multipliers = np.array([p.multiplier for p in poles])
        assert np.allclose(*pair_nearest(multipliers, z_poles), atol=1e-10)

    def test_characteristic_equation_satisfied(self, pll):
        from repro.pll.closedloop import ClosedLoopHTM

        closed = ClosedLoopHTM(pll)
        for pole in find_closed_loop_poles(pll):
            assert abs(1.0 + closed.effective_gain(pole.s)) < 1e-8

    def test_stable_loop_all_lhp(self, pll):
        assert all(p.is_stable for p in find_closed_loop_poles(pll))

    def test_unstable_loop_rhp_pole(self):
        hot = design_typical_loop(omega0=W0, omega_ug=0.3 * W0)
        poles = find_closed_loop_poles(hot)
        assert any(not p.is_stable for p in poles)
        worst = dominant_pole(hot)
        assert worst.s.real > 0
        assert worst.damping_time_constant == float("inf")

    def test_instability_mode_at_half_reference_rate(self):
        """The unstable Floquet exponent sits at Im(s) = ±w0/2 — the aliased
        half-rate mode classical analysis cannot represent."""
        hot = design_typical_loop(omega0=W0, omega_ug=0.3 * W0)
        worst = dominant_pole(hot)
        assert abs(abs(worst.s.imag) - W0 / 2) < 1e-6

    def test_sorted_rightmost_first(self, pll):
        poles = find_closed_loop_poles(pll)
        reals = [p.s.real for p in poles]
        assert reals == sorted(reals, reverse=True)

    def test_quality_factor_finite_for_complex_pole(self):
        pll2 = design_typical_loop(omega0=W0, omega_ug=0.15 * W0)
        poles = find_closed_loop_poles(pll2)
        complex_poles = [p for p in poles if abs(p.s.imag) > 1e-6]
        if complex_poles:
            assert all(np.isfinite(p.quality_factor) for p in complex_poles)

    def test_dominant_matches_slow_lti_pole(self):
        """Deep-LTI regime: the dominant exponent approaches the dominant
        continuous closed-loop pole of A/(1+A)."""
        slow = design_typical_loop(omega0=W0, omega_ug=0.02 * W0)
        from repro.baselines.lti_approx import ClassicalLTIAnalysis

        lti_poles = ClassicalLTIAnalysis(slow).closed_loop.poles()
        lti_dominant = lti_poles[np.argmax(lti_poles.real)]
        ours = dominant_pole(slow)
        assert ours.s == pytest.approx(lti_dominant, rel=5e-2)

    def test_refine_pole(self, pll):
        first = find_closed_loop_poles(pll)[0]
        refined = refine_pole(pll, first.s + 0.01)
        assert refined.s == pytest.approx(first.s, abs=1e-8)

    def test_refine_bad_seed_fails_cleanly(self, pll):
        with pytest.raises(ConvergenceError):
            refine_pole(pll, 50.0 + 0.0j, max_iter=5)
