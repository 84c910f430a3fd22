"""Margins from polynomial roots agree with the grid scan they replace.

``compare_margins`` takes the margins of a loop with
``lambda(s) = G_z(e^{sT})`` from polynomial roots.  The oracle here is the
scan, built from public pieces (``effective_open_loop``,
``open_loop_callable``, ``gain_crossover``, ``phase_margin``) over the same
window: all four fields agree to 1e-10 relative (a phase margin within 1
degree of 0 to 1e-10 degrees), and both raise ``ConvergenceError`` for the
same loops.  For loops with a sampling offset, a relative-degree-1 filter or
an LPTV VCO the scan runs over the coth form of ``lambda``
(``elementary_alias_sum`` of the loop's partial fractions), which shares no
code with the pole groups ``effective_open_loop`` evaluates.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._errors import ConvergenceError
from repro.blocks.chargepump import ChargePump
from repro.blocks.delay import LoopDelay
from repro.blocks.loopfilter import SeriesRCFilter, ThirdOrderFilter
from repro.blocks.pfd import SampleHoldPFD, SamplingPFD
from repro.blocks.vco import VCO
from repro.core.aliasing import elementary_alias_sum
from repro.lti.bode import gain_crossover, phase_margin
from repro.lti.rational import RationalFunction
from repro.pll import margins
from repro.pll.architecture import PLL
from repro.pll.design import design_typical_loop
from repro.pll.margins import compare_margins, effective_margin, effective_open_loop
from repro.pll.openloop import open_loop_callable
from repro.signals.isf import ImpulseSensitivity

W0 = 2 * np.pi
POINTS = 4000
RTOL = 1e-10


def scan(response, pll: PLL, points: int = POINTS) -> list[float]:
    """``[w_ug, pm]`` of one response by the grid scan."""
    w_lo, w_hi = 1e-3 * pll.omega0, 0.499 * pll.omega0
    w_ug = gain_crossover(response, w_lo, w_hi, points)
    return [w_ug, phase_margin(response, w_lo, w_hi, points, w_ug=w_ug)]


def scan_oracle(pll: PLL, points: int = POINTS, lam=None) -> list[float]:
    """``[w_ug_lti, pm_lti, w_ug_eff, pm_eff]`` by the grid scan (of ``lam`` for lambda)."""
    a_fn = open_loop_callable(pll)

    def a(omega):
        return np.asarray(a_fn(1j * np.asarray(omega, dtype=float)), dtype=complex)

    return scan(a, pll, points) + scan(lam or effective_open_loop(pll), pll, points)


def coth_lambda(pll: PLL):
    """``lambda(j omega)`` from the coth closed form, summed per partial fraction.

    A sampling offset ``t_off`` advances ISF harmonic ``k`` by
    ``e^{j k w0 t_off}``.
    """
    omega0, isf = pll.omega0, pll.vco.isf
    terms = []
    for k in range(-isf.order, isf.order + 1):
        if isf.coefficient(k) != 0:
            vk = isf.coefficient(k) * np.exp(1j * k * omega0 * pll.pfd.sampling_offset)
            shift = RationalFunction([1.0], [1.0, 1j * k * omega0])
            summand = (pll.pfd.gain * vk) * pll.h_lf.rational * shift
            terms += summand.partial_fractions()[1]

    def response(omega):
        s = 1j * np.asarray(omega, dtype=float)
        return sum(t.residue * elementary_alias_sum(s - t.pole, omega0, t.order) for t in terms)

    return response


def margins_by_roots(pll: PLL, points: int = POINTS) -> list[float]:
    m = compare_margins(pll, points=points)
    return [m.omega_ug_lti, m.phase_margin_lti_deg, m.omega_ug_eff, m.phase_margin_eff_deg]


def outcome(fn, pll):
    try:
        return fn(pll)
    except ConvergenceError:
        return None


def assert_agree(pll: PLL, roots=margins_by_roots, oracle=scan_oracle) -> None:
    got, want = outcome(roots, pll), outcome(oracle, pll)
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        names = ("w_ug_lti", "pm_lti", "w_ug_eff", "pm_eff")[-len(got) :]
        for name, g, w in zip(names, got, want):
            # A margin near 0 degrees gets a 1e-10-degree floor: a relative
            # bound means nothing there.
            scale = max(abs(w), 1.0) if name.startswith("pm") else abs(w)
            assert abs(g - w) <= RTOL * scale, (name, g, w)


def third_order_loop(omega_c, separation, third, icp, kv) -> PLL:
    """A third-order filter with the gain set for a crossover near ``omega_c``."""
    zero = omega_c / separation
    # |A(j w)| ~ (w0/2pi) kv icp / (C w zero) between the zero and the pole.
    capacitance = (W0 / (2 * math.pi)) * kv * icp / (omega_c * zero)
    filt = ThirdOrderFilter.from_pole_frequencies(
        zero, omega_c * separation, omega_c * separation * third, capacitance
    )
    return PLL(
        pfd=SamplingPFD(W0),
        charge_pump=ChargePump(icp),
        filter_impedance=filt.impedance(),
        vco=VCO.time_invariant(kv, W0),
    )


@pytest.fixture
def scans(monkeypatch):
    """The responses ``compare_margins`` scanned, in call order."""
    calls = []
    scan = margins.gain_crossover

    def counted(*args, **kwargs):
        calls.append(args[0])
        return scan(*args, **kwargs)

    monkeypatch.setattr(margins, "gain_crossover", counted)
    return calls


@st.composite
def typical_loops(draw) -> PLL:
    return design_typical_loop(
        omega0=W0,
        omega_ug=draw(st.floats(min_value=0.01, max_value=0.45)) * W0,
        separation=draw(st.floats(min_value=1.5, max_value=12.0)),
        charge_pump_current=draw(st.floats(min_value=1e-4, max_value=1e-2)),
        vco_sensitivity=draw(st.floats(min_value=0.1, max_value=10.0)),
    )


@st.composite
def third_order_loops(draw) -> PLL:
    return third_order_loop(
        omega_c=draw(st.floats(min_value=0.01, max_value=0.45)) * W0,
        separation=draw(st.floats(min_value=1.5, max_value=12.0)),
        third=draw(st.floats(min_value=1.5, max_value=20.0)),
        icp=draw(st.floats(min_value=1e-4, max_value=1e-2)),
        kv=draw(st.floats(min_value=0.1, max_value=10.0)),
    )


@st.composite
def offset_loops(draw) -> PLL:
    offset = draw(st.floats(min_value=0.0, max_value=0.95))
    return dataclasses.replace(draw(typical_loops()), pfd=SamplingPFD(W0, sampling_offset=offset))


@st.composite
def relative_degree_one_loops(draw) -> PLL:
    """Series R-C filter: ``A(s) ~ K R / s`` at high frequency."""
    omega_c = draw(st.floats(min_value=0.01, max_value=0.3)) * W0
    separation = draw(st.floats(min_value=1.5, max_value=12.0))
    icp = draw(st.floats(min_value=1e-4, max_value=1e-2))
    kv = draw(st.floats(min_value=0.1, max_value=10.0))
    # |A(j omega_c)| = 1 with the zero at omega_c / separation.
    capacitance = (W0 / (2 * math.pi)) * kv * icp * math.hypot(1.0, separation) / omega_c**2
    resistance = separation / (omega_c * capacitance)
    return PLL(
        pfd=SamplingPFD(W0),
        charge_pump=ChargePump(icp),
        filter_impedance=SeriesRCFilter(resistance, capacitance).impedance(),
        vco=VCO.time_invariant(kv, W0),
    )


@st.composite
def lptv_loops(draw) -> PLL:
    base = draw(offset_loops())
    isf = ImpulseSensitivity.sinusoidal(
        base.vco.isf.coefficient(0).real,
        draw(st.floats(min_value=0.0, max_value=0.7)),
        W0,
        phase=draw(st.floats(min_value=-math.pi, max_value=math.pi)),
    )
    return dataclasses.replace(base, vco=VCO(isf))


def coth_scan_oracle(pll: PLL) -> list[float]:
    return scan_oracle(pll, lam=coth_lambda(pll))


def effective_by_roots(pll: PLL) -> list[float]:
    return list(effective_margin(pll, points=POINTS))


def effective_coth_scan(pll: PLL) -> list[float]:
    return scan(coth_lambda(pll), pll)


class TestRootsMatchScan:
    @given(pll=typical_loops())
    @settings(max_examples=40, deadline=None)
    def test_typical_loops(self, pll):
        assert_agree(pll)

    @given(pll=third_order_loops())
    @settings(max_examples=40, deadline=None)
    def test_third_order_loops(self, pll):
        assert_agree(pll)

    @given(pll=offset_loops())
    @settings(max_examples=25, deadline=None)
    def test_sampling_offset_loops(self, pll):
        assert_agree(pll, oracle=coth_scan_oracle)

    @given(pll=relative_degree_one_loops())
    @settings(max_examples=25, deadline=None)
    def test_relative_degree_one_loops(self, pll):
        assert_agree(pll, oracle=coth_scan_oracle)

    @given(pll=lptv_loops())
    @settings(max_examples=25, deadline=None)
    def test_lptv_loops(self, pll):
        assert_agree(pll, roots=effective_by_roots, oracle=effective_coth_scan)


@pytest.mark.parametrize(
    "pll",
    [
        # Crossover at w0/100 with every pole near z = 1, where the expanded
        # denominator of G_z cancels; evaluated from its pole groups it does not.
        third_order_loop(0.06, 1.5, 1.5, 1e-4, 0.1),
        # A pole at e^{-232 T}: P(z) gets a 1e-101 leading coefficient.
        third_order_loop(1.248, 10.33, 17.96, 5e-3, 0.17),
    ],
    ids=["low_ratio", "fast_pole"],
)
def test_hard_impulse_loops_take_the_roots(pll, scans):
    assert_agree(pll)
    assert scans == []


def test_offset_loop_takes_the_roots(scans):
    base = design_typical_loop(omega0=W0, omega_ug=0.1 * W0)
    shifted = compare_margins(dataclasses.replace(base, pfd=SamplingPFD(W0, sampling_offset=0.2)))
    assert scans == []
    assert shifted == compare_margins(base)


def test_sample_and_hold_and_delayed_loops_take_the_scan(scans):
    base = design_typical_loop(omega0=W0, omega_ug=0.1 * W0)
    compare_margins(base, points=400)
    assert scans == []  # both margins from roots

    for pll in (
        dataclasses.replace(base, pfd=SampleHoldPFD(W0)),
        dataclasses.replace(base, delay=LoopDelay(0.05, W0)),
    ):
        scans.clear()
        got = margins_by_roots(pll, points=400)
        assert len(scans) == 2  # A and lambda both scanned
        assert got == scan_oracle(pll, points=400)
