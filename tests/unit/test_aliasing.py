"""Tests for repro.core.aliasing — the coth closed-form aliasing sums."""

import numpy as np
import pytest

from repro._errors import ValidationError
from repro.core.aliasing import (
    AliasedSum,
    coth,
    elementary_alias_sum,
    truncated_alias_sum,
)
from repro.lti.rational import RationalFunction
from repro.lti.transfer import TransferFunction

W0 = 2 * np.pi


def brute_sum(func, s, harmonics=30000):
    total = func(s)
    for m in range(1, harmonics + 1):
        total += func(s + 1j * m * W0) + func(s - 1j * m * W0)
    return total


class TestCoth:
    def test_real_argument(self):
        assert coth(1.0) == pytest.approx(1.0 / np.tanh(1.0))

    def test_odd_symmetry(self):
        z = 0.7 + 0.4j
        assert coth(-z) == pytest.approx(-coth(z))

    def test_large_argument_saturates(self):
        assert coth(500.0) == pytest.approx(1.0)
        assert coth(-500.0) == pytest.approx(-1.0)

    def test_no_overflow_for_huge_real_part(self):
        value = coth(1e6 + 3j)
        assert np.isfinite(value)

    def test_small_argument(self):
        z = 1e-6
        assert coth(z) == pytest.approx(1.0 / z + z / 3.0, rel=1e-6)

    def test_vectorized(self):
        z = np.array([0.5, 1.0 + 1j])
        out = coth(z)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(1 / np.tanh(0.5))


class TestElementaryAliasSum:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_matches_brute_force(self, order):
        x = 0.31 + 0.22j
        closed = elementary_alias_sum(x, W0, order)
        brute = brute_sum(lambda s: 1.0 / s**order, x)
        # Brute truncation error dominates for orders 1-2.
        assert closed == pytest.approx(brute, rel=2e-5)

    def test_known_identity_order1(self):
        """S_1(x) = (T/2) coth(T x/2) — the Mittag-Leffler expansion."""
        x = 0.5 - 0.3j
        c = np.pi / W0
        assert elementary_alias_sum(x, W0, 1) == pytest.approx(c * coth(c * x))

    def test_known_identity_order2(self):
        """S_2(x) = c^2 csch^2(c x) = c^2 (coth^2 - 1)."""
        x = 0.4 + 0.1j
        c = np.pi / W0
        y = coth(c * x)
        assert elementary_alias_sum(x, W0, 2) == pytest.approx(c**2 * (y**2 - 1))

    def test_known_identity_order3(self):
        """S_3(x) = c^3 coth csch^2."""
        x = 0.6 - 0.2j
        c = np.pi / W0
        y = coth(c * x)
        assert elementary_alias_sum(x, W0, 3) == pytest.approx(c**3 * y * (y**2 - 1))

    def test_periodicity(self):
        x = 0.2 + 0.3j
        for order in (1, 2, 3):
            assert elementary_alias_sum(x + 1j * W0, W0, order) == pytest.approx(
                elementary_alias_sum(x, W0, order), rel=1e-10
            )

    def test_vectorized(self):
        x = np.array([0.1, 0.2 + 0.1j])
        out = elementary_alias_sum(x, W0, 2)
        assert out.shape == (2,)

    def test_order_validated(self):
        with pytest.raises(ValidationError):
            elementary_alias_sum(1.0, W0, 0)


class TestAliasedSum:
    def loop_gain(self):
        # K (1 + s/wz) / (s^2 (1 + s/wp)) — the paper's shape.
        wz, wp, k = 0.25 * W0, 4.0 * W0, (0.5 * W0) ** 2
        return RationalFunction([k / wz, k], [1.0 / wp, 1.0, 0.0, 0.0])

    def test_matches_truncated(self):
        a = self.loop_gain()
        alias = AliasedSum.of(a, W0)
        s = 1j * 0.21 * W0
        closed = alias(s)
        trunc = truncated_alias_sum(a, s, W0, 5000)
        # The truncated tail decays like 1/M — agreement at the 1e-3 level.
        assert closed == pytest.approx(trunc, rel=1e-3)

    def test_truncated_converges_toward_closed(self):
        """Doubling the truncation should halve the distance to the closed form."""
        a = self.loop_gain()
        alias = AliasedSum.of(a, W0)
        s = 1j * 0.21 * W0
        closed = alias(s)
        err_coarse = abs(truncated_alias_sum(a, s, W0, 500) - closed)
        err_fine = abs(truncated_alias_sum(a, s, W0, 2000) - closed)
        assert err_fine < err_coarse / 2.0

    def test_accepts_transfer_function(self):
        tf = TransferFunction([1.0], [1.0, 1.0, 1.0])
        alias = AliasedSum.of(tf, W0)
        assert np.isfinite(alias(0.3j))

    def test_rejects_biproper(self):
        with pytest.raises(ValidationError):
            AliasedSum.of(RationalFunction([1.0, 0.0], [1.0, 1.0]), W0)

    def test_rejects_non_rational(self):
        with pytest.raises(ValidationError):
            AliasedSum.of(lambda s: 1.0 / s, W0)

    def test_periodicity(self):
        alias = AliasedSum.of(self.loop_gain(), W0)
        assert alias.is_periodic_check(0.17j * W0)

    def test_conjugate_symmetry(self):
        """Real-coefficient summand: lambda(-jw) = conj(lambda(jw))."""
        alias = AliasedSum.of(self.loop_gain(), W0)
        w = 0.23 * W0
        assert alias(-1j * w) == pytest.approx(np.conj(alias(1j * w)))

    def test_vectorized_and_jomega(self):
        alias = AliasedSum.of(self.loop_gain(), W0)
        omega = np.array([0.1, 0.2, 0.3]) * W0
        out = alias.eval_jomega(omega)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(alias(1j * omega[1]))

    def test_base_poles(self):
        alias = AliasedSum.of(self.loop_gain(), W0)
        poles = alias.base_poles()
        assert any(abs(p) < 1e-6 for p in poles)
        assert any(abs(p + 4.0 * W0) < 1e-3 for p in poles)

    def test_double_pole_handled(self):
        """The double DC pole of the loop gain needs the order-2 sum."""
        a = RationalFunction([1.0], [1.0, 0.0, 0.0])  # 1/s^2
        alias = AliasedSum.of(a, W0)
        s = 0.3 + 0.1j
        brute = brute_sum(lambda x: 1.0 / x**2, s)
        assert alias(s) == pytest.approx(brute, rel=1e-4)


class TestTruncatedAliasSum:
    def test_zero_harmonics_is_plain_eval(self):
        f = RationalFunction([1.0], [1.0, 1.0])
        s = 0.5j
        assert truncated_alias_sum(f, s, W0, 0) == pytest.approx(complex(f(s)))

    def test_symmetric_pairing_converges_relative_degree_one(self):
        f = RationalFunction([1.0], [1.0, 1.0])  # 1/(s+1), relative degree 1
        s = 0.2j
        coarse = truncated_alias_sum(f, s, W0, 50)
        fine = truncated_alias_sum(f, s, W0, 5000)
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_works_with_callable(self):
        s = 0.1j
        out = truncated_alias_sum(lambda x: 1.0 / (x + 1.0) ** 2, s, W0, 500)
        exact = elementary_alias_sum(s + 1.0, W0, 2)
        assert out == pytest.approx(exact, rel=1e-3)

    def test_array_input(self):
        f = RationalFunction([1.0], [1.0, 0.5, 1.0])
        s = 1j * np.array([0.1, 0.2])
        out = truncated_alias_sum(f, s, W0, 100)
        assert out.shape == (2,)


def test_one_expansion_per_design(monkeypatch):
    """The closed-loop HTM, the z-domain model, the margins and the pole
    search of one design share a single partial-fraction expansion."""
    from collections import OrderedDict

    from repro.baselines.zdomain import sampled_open_loop
    from repro.core import aliasing
    from repro.pll.closedloop import ClosedLoopHTM
    from repro.pll.design import design_typical_loop
    from repro.pll.margins import compare_margins
    from repro.pll.poles import find_closed_loop_poles

    monkeypatch.setattr(aliasing, "_OF_CACHE", OrderedDict())
    expanded = []
    expand = RationalFunction.partial_fractions

    def counted(self, tol=None):
        if tol not in self._pf_cache:
            expanded.append(self)
        return expand(self, tol)

    monkeypatch.setattr(RationalFunction, "partial_fractions", counted)
    pll = design_typical_loop(omega0=W0, omega_ug=0.1 * W0)
    ClosedLoopHTM(pll)
    sampled_open_loop(pll)
    compare_margins(pll)
    find_closed_loop_poles(pll)
    assert len(expanded) == 1
