"""Integration: closed-loop poles agree across three routes.

1. **s-domain**: Newton roots of the characteristic function
   ``1 + lambda(s) = 0`` with the exact derivative (the HTM route);
2. **z-domain**: poles of the impulse-invariant ``G_z/(1 + G_z)``;
3. **Floquet**: eigenvalues of the numerically-linearised one-cycle return
   map of the *nonlinear event-driven engine*.

Routes 1 and 2 share the loop's one expansion (route 1 seeds from route 2);
route 3 is independent of both, and covers LPTV VCOs too.

And a fourth, fully physical check: the measured decay rate of a transient
in the behavioural simulator matches the dominant pole's damping constant.
"""

import numpy as np
import pytest

from repro.baselines.zdomain import closed_loop_z, sampled_open_loop
from repro.blocks.vco import VCO
from repro.pll.architecture import PLL
from repro.pll.design import design_typical_loop
from repro.pll.poles import dominant_pole, find_closed_loop_poles
from repro.simulator.engine import BehavioralPLLSimulator, SimulationConfig
from repro.signals.isf import ImpulseSensitivity
from repro.simulator.floquet import floquet_multipliers
from tests.pairing import pair_nearest

W0 = 2 * np.pi


def designer(ratio):
    return design_typical_loop(omega0=W0, omega_ug=ratio * W0)


@pytest.mark.parametrize("ratio", [0.05, 0.1, 0.2])
class TestThreeWayIdentity:
    def test_s_domain_vs_z_domain(self, ratio):
        pll = designer(ratio)
        s_mult = np.array([p.multiplier for p in find_closed_loop_poles(pll)])
        z_poles = closed_loop_z(sampled_open_loop(pll)).poles()
        assert np.allclose(*pair_nearest(s_mult, z_poles), atol=1e-9)

    def test_s_domain_vs_floquet(self, ratio):
        pll = designer(ratio)
        s_mult = np.array([p.multiplier for p in find_closed_loop_poles(pll)])
        flo = floquet_multipliers(pll).multipliers
        assert np.allclose(*pair_nearest(s_mult, flo), atol=2e-3)


@pytest.mark.parametrize("ratio", [0.05, 0.1])
def test_lptv_s_domain_vs_floquet(ratio):
    """The pole search takes an LPTV VCO (its ISF harmonics share z = 1)."""
    base = designer(ratio)
    isf = ImpulseSensitivity.sinusoidal(base.vco.isf.coefficient(0).real, 0.4, W0, phase=0.7)
    pll = PLL(
        pfd=base.pfd,
        charge_pump=base.charge_pump,
        filter_impedance=base.filter_impedance,
        vco=VCO(isf),
    )
    poles = find_closed_loop_poles(pll)
    assert all(p.residual < 1e-9 for p in poles)
    s_mult = np.array([p.multiplier for p in poles])
    flo = floquet_multipliers(pll).multipliers
    assert np.allclose(*pair_nearest(s_mult, flo), atol=2e-3)


class TestPhysicalDecayRate:
    def test_transient_decay_matches_dominant_pole(self):
        """Kick the loop, fit the exponential tail of the per-cycle error,
        compare the decay-per-cycle with |e^{s1 T}| of the dominant pole."""
        pll = designer(0.1)
        pole = dominant_pole(pll)
        expected_per_cycle = abs(pole.multiplier)

        cfg = SimulationConfig(cycles=120, frequency_offset=1e-4)
        result = BehavioralPLLSimulator(pll, config=cfg).run()
        errors = np.abs(result.phase_errors)
        # Fit log-linear decay on a clean mid-transient window.
        window = slice(20, 60)
        cycles = np.arange(120)[window]
        logs = np.log(errors[window])
        slope = np.polyfit(cycles, logs, 1)[0]
        measured_per_cycle = float(np.exp(slope))
        assert measured_per_cycle == pytest.approx(expected_per_cycle, rel=0.05)

    def test_unstable_growth_rate_matches(self):
        """Past the boundary the limit-cycle onset grows at the unstable
        multiplier's rate while still small."""
        pll = designer(0.29)
        pole = dominant_pole(pll)
        assert abs(pole.multiplier) > 1.0
        cfg = SimulationConfig(cycles=200, frequency_offset=1e-7)
        result = BehavioralPLLSimulator(pll, config=cfg).run()
        errors = np.abs(result.phase_errors)
        # Growth phase: pick a window where the error is still tiny
        # (linear regime) but past the initial transient.
        window = slice(40, 120)
        logs = np.log(errors[window])
        slope = np.polyfit(np.arange(200)[window], logs, 1)[0]
        measured = float(np.exp(slope))
        assert measured == pytest.approx(abs(pole.multiplier), rel=0.05)
