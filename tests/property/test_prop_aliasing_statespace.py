"""Property-based tests: aliasing-sum identities and exact state stepping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aliasing import AliasedSum, elementary_alias_sum, truncated_alias_sum
from repro.lti.rational import RationalFunction
from repro.lti.statespace import StateSpace
from repro.lti.transfer import TransferFunction

W0 = 2 * np.pi


@st.composite
def stable_strictly_proper(draw):
    """Random strictly proper rational function with poles in the LHP."""
    n_poles = draw(st.integers(2, 4))
    poles = []
    for _ in range(n_poles):
        re = draw(st.floats(min_value=-5.0, max_value=-0.3, allow_nan=False))
        im = draw(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
        poles.append(complex(re, im))
    n_zeros = draw(st.integers(0, n_poles - 2))
    zeros = [
        complex(draw(st.floats(-4.0, -0.1, allow_nan=False)), 0.0)
        for _ in range(n_zeros)
    ]
    gain = draw(st.floats(min_value=0.2, max_value=3.0, allow_nan=False))
    return RationalFunction.from_zpk(zeros, poles, gain)


#: Candidate poles at least ``w0/4`` apart, none ``j k w0`` from another.
POLE_LATTICE = [
    complex(-0.05 - 0.25 * i, k / 3) * W0 for i in range(3) for k in range(-1, 2)
] + [0j]


@st.composite
def multiple_pole_rational(draw):
    """Strictly proper ``F`` of relative degree 1-4, poles of multiplicity 1-5 (DC too).

    Simple poles at ``±j w0`` share ``z = 1`` with DC, as an LPTV VCO's
    ISF harmonics do.
    """
    picks = draw(st.lists(st.sampled_from(POLE_LATTICE), min_size=1, max_size=3, unique=True))
    poles = [p for p in picks for _ in range(draw(st.integers(1, 5)))]
    poles += draw(st.sampled_from([[], [1j * W0], [-1j * W0, 1j * W0]]))
    relative_degree = min(draw(st.integers(1, 4)), len(poles))
    coefficient = st.floats(-2.0, 2.0, allow_nan=False)
    num = [complex(draw(st.floats(0.5, 2.0)), draw(coefficient))] + [
        complex(draw(coefficient), draw(coefficient))
        for _ in range(len(poles) - relative_degree)
    ]
    return RationalFunction(num, np.poly(poles))


class TestAliasingProperties:
    @given(
        f=multiple_pole_rational(),
        re=st.floats(0.02, 0.2),
        sign=st.sampled_from([-1.0, 1.0]),
        im=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_z_form_matches_coth_terms(self, f, re, sign, im):
        """The pole-group form of each term, merged over shared ``a``, sums
        to the coth closed form of the same partial fractions.  The bound is
        relative to the terms' magnitudes: residues of nearby multiple poles
        cancel, and neither form is then accurate relative to the sum.  The
        cluster tolerance groups each multiple root's perturbed copies."""
        alias = AliasedSum.of(f, W0, cluster_tol=0.05)
        s = complex(sign * re, im) * W0
        parts = [t.residue * elementary_alias_sum(s - t.pole, W0, t.order) for t in alias.terms]
        scale = math.fsum(abs(part) for part in parts)
        assert abs(alias(s) - sum(parts)) <= 1e-12 * scale


    @given(f=stable_strictly_proper(), w=st.floats(0.02, 0.48))
    @settings(max_examples=30, deadline=None)
    def test_closed_form_matches_truncation(self, f, w):
        alias = AliasedSum.of(f, W0)
        s = 1j * w * W0
        closed = alias(s)
        coarse = truncated_alias_sum(f, s, W0, 1000)
        fine = truncated_alias_sum(f, s, W0, 4000)
        # The truncated tail is an absolute O(1/M) error, so instead of a
        # fixed relative tolerance we require the closed form to sit closer
        # to the fine truncation than the coarse one does (i.e. it lies on
        # the convergence trajectory), with floating-point slack.
        err_closed = abs(closed - fine)
        err_coarse = abs(coarse - fine)
        # When the tail cancels (conjugate poles) both errors sit at
        # round-off; the slack must cover that floor while still flagging
        # any genuine divergence (which shows up orders of magnitude above).
        slack = 1e-8 * max(abs(closed), abs(fine), 1.0)
        assert err_closed <= err_coarse + slack

    @given(f=stable_strictly_proper(), w=st.floats(0.02, 0.48))
    @settings(max_examples=30, deadline=None)
    def test_periodicity(self, f, w):
        alias = AliasedSum.of(f, W0)
        s = 1j * w * W0 + 0.1
        a = alias(s)
        b = alias(s + 1j * W0)
        assert a == pytest.approx(b, rel=1e-7, abs=1e-10)

    @given(order=st.integers(1, 6), x_re=st.floats(0.05, 2.0), x_im=st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_elementary_sum_shift_invariance(self, order, x_re, x_im):
        x = complex(x_re, x_im)
        a = elementary_alias_sum(x, W0, order)
        b = elementary_alias_sum(x + 1j * W0, W0, order)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-12)

    @given(order=st.integers(2, 5), x_re=st.floats(0.05, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_elementary_sum_brute_force(self, order, x_re):
        x = complex(x_re, 0.13)
        closed = elementary_alias_sum(x, W0, order)
        brute = sum(
            1.0 / (x + 1j * m * W0) ** order for m in range(-3000, 3001)
        )
        assert closed == pytest.approx(brute, rel=1e-3)


class TestStateSpaceProperties:
    @st.composite
    @staticmethod
    def stable_siso(draw):
        poles = []
        for _ in range(draw(st.integers(1, 3))):
            poles.append(draw(st.floats(min_value=-4.0, max_value=-0.2, allow_nan=False)))
        gain = draw(st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
        rf = RationalFunction.from_zpk([], [complex(p) for p in poles], gain)
        return TransferFunction.from_rational(rf)

    @given(tf=stable_siso(), dt1=st.floats(0.01, 1.0), dt2=st.floats(0.01, 1.0), u=st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_semigroup_property(self, tf, dt1, dt2, u):
        """step(dt1+dt2) == step(dt2) after step(dt1) for held input."""
        ss = StateSpace.from_transfer_function(tf)
        x0 = np.linspace(0.1, 0.3, ss.order)
        x_direct, _ = ss.step_held_input(x0, u, dt1 + dt2)
        x_mid, _ = ss.step_held_input(x0, u, dt1)
        x_chained, _ = ss.step_held_input(x_mid, u, dt2)
        assert np.allclose(x_direct, x_chained, rtol=1e-9, atol=1e-12)

    @given(tf=stable_siso(), u=st.floats(-2.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_steady_state_is_dc_gain(self, tf, u):
        ss = StateSpace.from_transfer_function(tf)
        x = np.zeros(ss.order)
        x, y = ss.step_held_input(x, u, 200.0)
        assert y == pytest.approx(float(ss.dc_gain().real) * u, rel=1e-6, abs=1e-9)

    @given(tf=stable_siso(), s_im=st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_realization_matches_transfer(self, tf, s_im):
        ss = StateSpace.from_transfer_function(tf)
        s = 1j * s_im
        assert ss.transfer_at(s) == pytest.approx(tf(s), rel=1e-9)
