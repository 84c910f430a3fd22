"""Tests for repro.pll.architecture and repro.pll.openloop."""

import numpy as np
import pytest

from repro._errors import ValidationError
from repro.blocks.chargepump import ChargePump
from repro.blocks.delay import LoopDelay
from repro.blocks.loopfilter import SeriesRCShuntCFilter
from repro.blocks.pfd import SamplingPFD
from repro.blocks.vco import VCO
from repro.pll.architecture import PLL
from repro.pll.design import design_typical_loop
from repro.pll.openloop import lti_open_loop, open_loop_callable, open_loop_operator

W0 = 2 * np.pi


def make_pll(delay=None, omega0=W0):
    filt = SeriesRCShuntCFilter.from_pole_zero(0.1 * omega0, 1.6 * omega0, 1e-3)
    return PLL(
        pfd=SamplingPFD(omega0),
        charge_pump=ChargePump(1e-3),
        filter_impedance=filt.impedance(),
        vco=VCO.time_invariant(1.0, omega0),
        delay=delay,
    )


class TestPLL:
    def test_omega0_and_period(self):
        pll = make_pll()
        assert pll.omega0 == W0
        assert pll.period == pytest.approx(1.0)

    def test_h_lf_combines_pump_and_impedance(self):
        pll = make_pll()
        s = 0.3j
        assert pll.h_lf(s) == pytest.approx(1e-3 * pll.filter_impedance(s))

    def test_h_lf_is_built_once_per_loop(self):
        pll = make_pll()
        assert pll.h_lf is pll.h_lf
        s = 1j * np.linspace(0.05, 3.0, 9) * W0
        fresh = pll.charge_pump.loop_filter_transfer(pll.filter_impedance)
        assert np.asarray(pll.h_lf(s)).tobytes() == np.asarray(fresh(s)).tobytes()

    def test_closed_loop_builds_h_lf_once(self, monkeypatch):
        from repro.pll.closedloop import ClosedLoopHTM

        calls = []
        build = ChargePump.loop_filter_transfer

        def counted(self, impedance):
            calls.append(1)
            return build(self, impedance)

        monkeypatch.setattr(ChargePump, "loop_filter_transfer", counted)
        ClosedLoopHTM(make_pll())
        assert len(calls) == 1

    def test_fundamental_mismatch_rejected(self):
        filt = SeriesRCShuntCFilter.from_pole_zero(0.1 * W0, 1.6 * W0, 1e-3)
        with pytest.raises(ValidationError):
            PLL(
                pfd=SamplingPFD(W0),
                charge_pump=ChargePump(1e-3),
                filter_impedance=filt.impedance(),
                vco=VCO.time_invariant(1.0, 2 * W0),
            )

    def test_delay_fundamental_checked(self):
        with pytest.raises(ValidationError):
            make_pll(delay=LoopDelay(0.01, 3 * W0))

    def test_has_delay(self):
        assert not make_pll().has_delay
        assert not make_pll(delay=LoopDelay(0.0, W0)).has_delay
        assert make_pll(delay=LoopDelay(0.05, W0)).has_delay

    def test_describe(self):
        text = make_pll().describe()
        assert "omega0" in text and "Icp" in text


class TestLTIOpenLoop:
    def test_eq35_formula(self):
        pll = make_pll()
        a = lti_open_loop(pll)
        s = 0.27j
        expected = (W0 / (2 * np.pi)) * (1.0 / s) * pll.h_lf(s)
        assert a(s) == pytest.approx(expected)

    def test_pole_structure(self):
        """Three poles (two at DC) and one zero — the Fig. 5 shape."""
        a = lti_open_loop(make_pll())
        poles = a.poles()
        assert len(poles) == 3
        assert np.sum(np.abs(poles) < 1e-6) == 2
        assert len(a.zeros()) == 1

    def test_delay_requires_pade(self):
        pll = make_pll(delay=LoopDelay(0.02, W0))
        with pytest.raises(ValidationError):
            lti_open_loop(pll)
        a = lti_open_loop(pll, pade_order=2)
        s = 0.1j
        exact = open_loop_callable(pll)(s)
        assert a(s) == pytest.approx(exact, rel=1e-4)

    def test_callable_matches_rational_when_no_delay(self):
        pll = make_pll()
        a_tf = lti_open_loop(pll)
        a_fn = open_loop_callable(pll)
        s = 0.4j
        assert a_fn(s) == pytest.approx(a_tf(s))

    def test_callable_vectorized(self):
        pll = make_pll()
        out = open_loop_callable(pll)(1j * np.array([0.1, 0.2]))
        assert out.shape == (2,)


class TestOpenLoopOperator:
    def test_rank_one(self):
        op = open_loop_operator(make_pll())
        mat = op.dense(0.2j, 3)
        svals = np.linalg.svd(mat, compute_uv=False)
        assert svals[1] < 1e-10 * svals[0]

    def test_column_is_a_of_shifted_s(self):
        """G = V l^T with V_n(s) = A(s + j n w0) for the LTI-VCO loop."""
        pll = make_pll()
        a = lti_open_loop(pll)
        s = 0.23j
        mat = open_loop_operator(pll).dense(s, 2)
        for n in range(-2, 3):
            assert mat[n + 2, 0] == pytest.approx(complex(a(s + 1j * n * W0)), rel=1e-9)

    def test_delay_included(self):
        pll = make_pll(delay=LoopDelay(0.03, W0))
        s = 0.2j
        mat = open_loop_operator(pll).dense(s, 1)
        expected = open_loop_callable(pll)(s)
        assert mat[1, 1] == pytest.approx(complex(expected), rel=1e-9)

    def test_design_typical_loop_unity_gain(self):
        pll = design_typical_loop(omega0=W0, omega_ug=0.1 * W0)
        a = lti_open_loop(pll)
        assert abs(a(1j * 0.1 * W0)) == pytest.approx(1.0, rel=1e-9)
