"""Tests for repro.pll.closedloop — the SMW closed form (paper sec. 4)."""

import numpy as np
import pytest

from repro._errors import ValidationError
from repro.blocks.delay import LoopDelay
from repro.blocks.pfd import SamplingPFD
from repro.blocks.vco import VCO
from repro.pll.architecture import PLL
from repro.pll.closedloop import ClosedLoopHTM
from repro.pll.design import design_typical_loop
from repro.pll.openloop import lti_open_loop
from repro.signals.isf import ImpulseSensitivity

W0 = 2 * np.pi


@pytest.fixture(scope="module")
def pll():
    return design_typical_loop(omega0=W0, omega_ug=0.1 * W0)


@pytest.fixture(scope="module")
def closed(pll):
    return ClosedLoopHTM(pll)


class TestConstruction:
    def test_method_validated(self, pll):
        with pytest.raises(ValidationError):
            ClosedLoopHTM(pll, method="magic")

    def test_delay_forces_truncated(self):
        base = design_typical_loop(omega0=W0, omega_ug=0.05 * W0)
        delayed = PLL(
            pfd=base.pfd,
            charge_pump=base.charge_pump,
            filter_impedance=base.filter_impedance,
            vco=base.vco,
            delay=LoopDelay(0.02, W0),
        )
        with pytest.raises(ValidationError):
            ClosedLoopHTM(delayed, method="closed")
        assert ClosedLoopHTM(delayed, method="truncated").method == "truncated"

    def test_offset_loop_closed_lambda_equals_offset_free(self):
        """A sampling offset rotates V_n and the row l_n by opposite phases,
        so lambda and H00 do not depend on it and the closed form applies."""
        base = design_typical_loop(omega0=W0, omega_ug=0.05 * W0)
        shifted = PLL(
            pfd=SamplingPFD(W0, sampling_offset=0.1),
            charge_pump=base.charge_pump,
            filter_impedance=base.filter_impedance,
            vco=base.vco,
        )
        closed = ClosedLoopHTM(shifted, method="closed")
        offset_free = ClosedLoopHTM(base)
        s = np.array([0.13j * W0, 0.2 + 0.31j * W0])
        lam = closed.effective_gain(s)
        assert np.allclose(lam, offset_free.effective_gain(s), rtol=1e-12, atol=0)
        assert np.allclose(closed.h00(s), offset_free.h00(s), rtol=1e-12, atol=0)
        truncated = ClosedLoopHTM(shifted, method="truncated", harmonics=4000)
        assert lam[0] == pytest.approx(truncated.effective_gain(s[0]), rel=1e-3)


class TestVtilde:
    def test_equals_shifted_a_for_lti_vco(self, pll, closed):
        """V_n(s) = A(s + j n w0) (eq. 29 with constant ISF)."""
        a = lti_open_loop(pll)
        s = 0.17j * W0
        for n in (-2, 0, 1, 3):
            assert closed.vtilde_element(s, n) == pytest.approx(
                complex(a(s + 1j * n * W0)), rel=1e-9
            )

    def test_vector_shape(self, closed):
        v = closed.vtilde(0.1j, 3)
        assert v.shape == (7,)
        assert v[3] == pytest.approx(closed.vtilde_element(0.1j, 0))

    def test_vectorized_over_s(self, closed):
        s = 1j * np.array([0.1, 0.2]) * W0
        out = closed.vtilde_element(s, 1)
        assert out.shape == (2,)


class TestEffectiveGain:
    def test_closed_equals_truncated(self, pll):
        lam_c = ClosedLoopHTM(pll, method="closed").effective_gain(0.13j * W0)
        lam_t = ClosedLoopHTM(pll, method="truncated", harmonics=4000).effective_gain(
            0.13j * W0
        )
        assert lam_c == pytest.approx(lam_t, rel=1e-3)

    def test_periodic_in_jw0(self, closed):
        s = 0.21j * W0
        assert closed.effective_gain(s + 1j * W0) == pytest.approx(
            closed.effective_gain(s), rel=1e-9
        )

    def test_reduces_to_a_for_slow_loop(self):
        """Deep-LTI regime: lambda(j w) ~ A(j w) near the crossover."""
        slow = design_typical_loop(omega0=W0, omega_ug=0.005 * W0)
        closed = ClosedLoopHTM(slow)
        a = lti_open_loop(slow)
        s = 1j * 0.005 * W0
        assert closed.effective_gain(s) == pytest.approx(complex(a(s)), rel=0.02)

    def test_response_grid(self, closed):
        omega = np.array([0.05, 0.1, 0.2]) * W0
        out = closed.effective_gain_response(omega)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(closed.effective_gain(1j * omega[1]))


class TestClosedLoopElements:
    def test_h00_eq38(self, pll, closed):
        """H00 = A / (1 + lambda)."""
        a = lti_open_loop(pll)
        s = 0.14j * W0
        lam = closed.effective_gain(s)
        assert closed.h00(s) == pytest.approx(complex(a(s)) / (1 + lam), rel=1e-9)

    def test_element_independent_of_m(self, closed):
        """Rank-one row: H_{n,m} does not depend on m (zero offset)."""
        s = 0.19j * W0
        for n in (-1, 0, 2):
            vals = [closed.element(s, n, m) for m in (-2, 0, 1)]
            assert vals[0] == pytest.approx(vals[1])
            assert vals[1] == pytest.approx(vals[2])

    def test_matches_dense_reference_at_matched_truncation(self, pll):
        """SMW with truncated lambda == dense (I+G)^-1 G at the same order."""
        order = 25
        closed_t = ClosedLoopHTM(pll, method="truncated", harmonics=order)
        s = 0.11j * W0
        dense = closed_t.dense_reference(s, order)
        assert closed_t.h00(s) == pytest.approx(dense.element(0, 0), rel=1e-6)
        assert closed_t.element(s, 1, 0) == pytest.approx(dense.element(1, 0), rel=1e-6)

    def test_closed_form_close_to_large_dense(self, pll, closed):
        dense = closed.dense_reference(0.11j * W0, 60)
        assert closed.h00(0.11j * W0) == pytest.approx(dense.element(0, 0), rel=5e-3)

    def test_dc_limit_is_unity(self, closed):
        """Type-2 loop: H00 -> 1 as s -> 0 (perfect tracking)."""
        assert abs(closed.h00(1e-7j * W0)) == pytest.approx(1.0, abs=1e-4)

    def test_sensitivity_complements_h00(self, closed):
        s = 0.23j * W0
        assert closed.sensitivity_element(s, 0, 0) == pytest.approx(
            1.0 - closed.h00(s)
        )
        assert closed.sensitivity_element(s, 1, 0) == pytest.approx(
            -closed.element(s, 1, 0)
        )

    def test_closed_loop_row(self, closed):
        s = 0.2j * W0
        row = closed.closed_loop_row(s, 2)
        assert row.shape == (5,)
        assert row[2] == pytest.approx(closed.h00(s))

    def test_frequency_response_alias(self, closed):
        omega = np.array([0.1, 0.3]) * W0
        assert np.allclose(closed.frequency_response(omega), closed.eval_jomega(omega))


class TestLPTVVCO:
    def make_lptv_pll(self, ripple=0.3):
        base = design_typical_loop(omega0=W0, omega_ug=0.08 * W0)
        isf = ImpulseSensitivity.sinusoidal(1.0, ripple, W0)
        return PLL(
            pfd=base.pfd,
            charge_pump=base.charge_pump,
            filter_impedance=base.filter_impedance,
            vco=VCO(isf),
        )

    def test_closed_form_matches_dense(self):
        pll = self.make_lptv_pll()
        order = 30
        closed = ClosedLoopHTM(pll, method="truncated", harmonics=order)
        s = 0.13j * W0
        dense = closed.dense_reference(s, order)
        # The dense product truncates intermediate bands at +-order while the
        # SMW column convolves the full ISF at the edges: agreement is set by
        # the edge terms, a few times 1e-5 here.
        assert closed.h00(s) == pytest.approx(dense.element(0, 0), rel=1e-3)
        assert closed.element(s, -1, 0) == pytest.approx(dense.element(-1, 0), rel=1e-3)

    def test_closed_method_supported(self):
        """The coth closed form extends to LPTV ISFs (sum over harmonics)."""
        pll = self.make_lptv_pll()
        closed_c = ClosedLoopHTM(pll, method="closed")
        closed_t = ClosedLoopHTM(pll, method="truncated", harmonics=4000)
        s = 0.09j * W0
        assert closed_c.effective_gain(s) == pytest.approx(
            closed_t.effective_gain(s), rel=1e-3
        )

    def test_sampling_offset_advances_the_isf(self):
        """Sampling ``t_off`` into the period is the offset-free loop seen
        ``t_off`` later: the ISF harmonics advance by ``e^{j k w0 t_off}``.
        The SMW closure then matches the dense operator, and the closed
        lambda the truncated one; unlike a time-invariant loop's, lambda
        moves with the offset."""
        base = self.make_lptv_pll(ripple=0.5)
        pll = PLL(
            pfd=SamplingPFD(W0, sampling_offset=0.25),
            charge_pump=base.charge_pump,
            filter_impedance=base.filter_impedance,
            vco=base.vco,
        )
        order = 30
        s = 0.13j * W0
        truncated = ClosedLoopHTM(pll, method="truncated", harmonics=order)
        dense = truncated.dense_reference(s, order)
        assert truncated.h00(s) == pytest.approx(dense.element(0, 0), rel=1e-4)
        assert truncated.element(s, 1, 0) == pytest.approx(dense.element(1, 0), rel=1e-4)
        lam = ClosedLoopHTM(pll).effective_gain(s)
        fine = ClosedLoopHTM(pll, method="truncated", harmonics=4000).effective_gain(s)
        assert lam == pytest.approx(fine, rel=1e-3)
        assert lam != pytest.approx(ClosedLoopHTM(base).effective_gain(s), rel=1e-2)

    def test_ripple_changes_conversion(self):
        """A time-varying ISF adds conversion beyond the sampler's."""
        flat = ClosedLoopHTM(self.make_lptv_pll(ripple=1e-12))
        rippled = ClosedLoopHTM(self.make_lptv_pll(ripple=0.5))
        s = 0.1j * W0
        flat_conv = abs(flat.element(s, 1, 0))
        rippled_conv = abs(rippled.element(s, 1, 0))
        assert rippled_conv != pytest.approx(flat_conv, rel=1e-3)
