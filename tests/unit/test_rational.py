"""Tests for repro.lti.rational — the algebraic foundation."""

import numpy as np
import pytest

from repro._errors import ValidationError
from repro.lti.rational import PartialFractionTerm, RationalFunction


class TestConstruction:
    def test_basic(self):
        rf = RationalFunction([1.0], [1.0, 1.0])
        assert rf.num_degree == 0 and rf.den_degree == 1

    def test_denominator_made_monic(self):
        rf = RationalFunction([2.0], [2.0, 4.0])
        assert np.allclose(rf.den, [1.0, 2.0])
        assert np.allclose(rf.num, [1.0])

    def test_leading_zeros_trimmed(self):
        rf = RationalFunction([0.0, 0.0, 3.0], [0.0, 1.0, 1.0])
        assert rf.num_degree == 0 and rf.den_degree == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValidationError):
            RationalFunction([1.0], [0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            RationalFunction([], [1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            RationalFunction([float("nan")], [1.0])

    def test_from_zpk(self):
        rf = RationalFunction.from_zpk([-1.0], [-2.0, -3.0], gain=5.0)
        assert rf(0) == pytest.approx(5.0 * 1.0 / 6.0)

    def test_from_zpk_no_zeros(self):
        rf = RationalFunction.from_zpk([], [-1.0], gain=2.0)
        assert rf(0) == pytest.approx(2.0)

    def test_constant(self):
        rf = RationalFunction.constant(4.0 + 1j)
        assert rf(123.0) == pytest.approx(4.0 + 1j)

    def test_s(self):
        assert RationalFunction.s()(2.5j) == pytest.approx(2.5j)

    def test_integrator(self):
        assert RationalFunction.integrator(2)(2.0) == pytest.approx(0.25)

    def test_integrator_rejects_zero_order(self):
        with pytest.raises(ValidationError):
            RationalFunction.integrator(0)


class TestProperties:
    def test_relative_degree(self):
        rf = RationalFunction([1.0, 0.0], [1.0, 0.0, 0.0, 1.0])
        assert rf.relative_degree == 2

    def test_properness(self):
        strictly = RationalFunction([1.0], [1.0, 1.0])
        proper = RationalFunction([1.0, 0.0], [1.0, 1.0])
        improper = RationalFunction([1.0, 0.0, 0.0], [1.0, 1.0])
        assert strictly.is_strictly_proper() and strictly.is_proper()
        assert proper.is_proper() and not proper.is_strictly_proper()
        assert not improper.is_proper()

    def test_poles_and_zeros(self):
        rf = RationalFunction.from_zpk([-1.0], [-2.0, -3.0], 1.0)
        assert sorted(rf.zeros().real) == pytest.approx([-1.0])
        assert sorted(rf.poles().real) == pytest.approx([-3.0, -2.0])

    def test_dc_gain(self):
        rf = RationalFunction([3.0], [1.0, 6.0])
        assert rf.dc_gain() == pytest.approx(0.5)

    def test_dc_gain_infinite_for_integrator(self):
        assert np.isinf(RationalFunction.integrator().dc_gain())

    def test_is_zero(self):
        assert RationalFunction([0.0], [1.0, 1.0]).is_zero()
        assert not RationalFunction([1e-30], [1.0]).is_zero()


class TestEvaluation:
    def test_scalar_returns_complex(self):
        value = RationalFunction([1.0], [1.0, 1.0])(1j)
        assert isinstance(value, complex)
        assert value == pytest.approx(1.0 / (1j + 1.0))

    def test_array_shape_preserved(self):
        rf = RationalFunction([1.0], [1.0, 1.0])
        s = np.array([1j, 2j, 3j])
        out = rf(s)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(1.0 / (3j + 1.0))

    def test_eval_jomega(self):
        rf = RationalFunction([1.0, 0.0], [1.0])  # H(s) = s
        out = rf.eval_jomega([1.0, 2.0])
        assert np.allclose(out, [1j, 2j])


class TestArithmetic:
    a = RationalFunction([1.0], [1.0, 1.0])  # 1/(s+1)
    b = RationalFunction([1.0], [1.0, 2.0])  # 1/(s+2)

    def test_addition(self):
        s = 0.7j
        assert (self.a + self.b)(s) == pytest.approx(self.a(s) + self.b(s))

    def test_scalar_addition_both_sides(self):
        s = 1.3
        assert (self.a + 2)(s) == pytest.approx(self.a(s) + 2)
        assert (2 + self.a)(s) == pytest.approx(self.a(s) + 2)

    def test_subtraction(self):
        s = 0.5 + 0.5j
        assert (self.a - self.b)(s) == pytest.approx(self.a(s) - self.b(s))

    def test_rsub(self):
        s = 2.0
        assert (1 - self.a)(s) == pytest.approx(1 - self.a(s))

    def test_multiplication(self):
        s = 1j
        assert (self.a * self.b)(s) == pytest.approx(self.a(s) * self.b(s))

    def test_scalar_multiplication(self):
        s = 1j
        assert (3 * self.a)(s) == pytest.approx(3 * self.a(s))

    def test_division(self):
        s = 2j
        assert (self.a / self.b)(s) == pytest.approx(self.a(s) / self.b(s))

    def test_division_by_zero_function(self):
        zero = RationalFunction([0.0], [1.0])
        with pytest.raises(ZeroDivisionError):
            self.a / zero

    def test_negation(self):
        assert (-self.a)(1.0) == pytest.approx(-self.a(1.0))

    def test_power_positive(self):
        s = 0.3j
        assert (self.a**3)(s) == pytest.approx(self.a(s) ** 3)

    def test_power_zero_is_one(self):
        assert (self.a**0)(5.0) == pytest.approx(1.0)

    def test_power_negative_inverts(self):
        s = 1.0 + 1j
        assert (self.a**-1)(s) == pytest.approx(1.0 / self.a(s))

    def test_power_rejects_float(self):
        with pytest.raises(TypeError):
            self.a**0.5

    def test_coerce_rejects_strings(self):
        with pytest.raises(TypeError):
            self.a + "nope"

    def test_equality_and_hash(self):
        c = RationalFunction([2.0], [2.0, 2.0])
        assert c == self.a
        assert hash(c) == hash(self.a)

    def test_close_to_with_different_representation(self):
        expanded = self.a * RationalFunction([1.0, 2.0], [1.0, 2.0])
        assert expanded.close_to(self.a)
        assert not expanded.close_to(self.b)


class TestTransforms:
    def test_scaled_frequency(self):
        rf = RationalFunction([1.0], [1.0, 1.0])
        scaled = rf.scaled_frequency(10.0)
        assert scaled(10.0) == pytest.approx(rf(1.0))

    def test_scaled_frequency_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            RationalFunction([1.0], [1.0, 1.0]).scaled_frequency(0.0)

    def test_shifted(self):
        rf = RationalFunction([1.0, 0.0], [1.0, 0.0, 1.0])  # s/(s^2+1)
        offset = 0.5 + 2j
        s = 1.2 - 0.7j
        assert rf.shifted(offset)(s) == pytest.approx(rf(s + offset))

    def test_shift_then_unshift_roundtrip(self):
        rf = RationalFunction([1.0, 2.0], [1.0, 3.0, 5.0])
        back = rf.shifted(1j).shifted(-1j)
        assert back.close_to(rf)

    def test_derivative(self):
        rf = RationalFunction([1.0], [1.0, 0.0])  # 1/s -> -1/s^2
        assert rf.derivative()(2.0) == pytest.approx(-0.25)

    def test_derivative_of_polynomial(self):
        rf = RationalFunction([1.0, 0.0, 0.0], [1.0])  # s^2 -> 2 s
        assert rf.derivative()(3.0) == pytest.approx(6.0)

    def test_simplified_cancels_common_factor(self):
        rf = RationalFunction(np.polymul([1.0, 1.0], [1.0, 2.0]), np.polymul([1.0, 1.0], [1.0, 3.0]))
        simple = rf.simplified()
        assert simple.den_degree == 1
        assert simple.close_to(RationalFunction([1.0, 2.0], [1.0, 3.0]))

    def test_simplified_keeps_distinct_roots(self):
        rf = RationalFunction([1.0, 1.0], [1.0, 3.0])
        assert rf.simplified().den_degree == 1


class TestPartialFractions:
    def test_simple_poles(self):
        # 1/((s+1)(s+2)) = 1/(s+1) - 1/(s+2)
        rf = RationalFunction.from_zpk([], [-1.0, -2.0], 1.0)
        direct, terms = rf.partial_fractions()
        assert np.allclose(direct, [0.0])
        lookup = {round(t.pole.real, 6): t.residue for t in terms}
        assert lookup[-1.0] == pytest.approx(1.0)
        assert lookup[-2.0] == pytest.approx(-1.0)

    def test_double_pole(self):
        # (s+2)/(s+1)^2 = 1/(s+1) + 1/(s+1)^2
        rf = RationalFunction([1.0, 2.0], np.polymul([1.0, 1.0], [1.0, 1.0]))
        _, terms = rf.partial_fractions()
        by_order = {t.order: t.residue for t in terms}
        assert by_order[1] == pytest.approx(1.0)
        assert by_order[2] == pytest.approx(1.0)

    def test_double_pole_at_origin_with_extra_pole(self):
        # The paper's loop-gain structure: K (1+s/wz) / (s^2 (1+s/wp)).
        wz, wp, k = 0.25, 4.0, 1.0
        rf = RationalFunction([k / wz, k], [1.0 / wp, 1.0, 0.0, 0.0])
        _, terms = rf.partial_fractions()
        recon = sum(t(0.3 + 0.9j) for t in terms)
        assert recon == pytest.approx(rf(0.3 + 0.9j), rel=1e-9)

    def test_reconstruction_random_simple(self):
        rng = np.random.default_rng(42)
        poles = -rng.uniform(0.5, 3.0, size=4) + 1j * rng.uniform(-2, 2, size=4)
        rf = RationalFunction.from_zpk([-0.3], poles, 2.0)
        _, terms = rf.partial_fractions()
        for s in (0.1 + 1j, 2.0, -0.2 + 0.4j):
            recon = sum(t(s) for t in terms)
            assert recon == pytest.approx(rf(s), rel=1e-8)

    def test_triple_pole_reconstruction(self):
        rf = RationalFunction([1.0, 0.5], np.polymul(np.polymul([1.0, 1.0], [1.0, 1.0]), [1.0, 1.0]))
        _, terms = rf.partial_fractions()
        s = 0.7 - 0.4j
        assert sum(t(s) for t in terms) == pytest.approx(rf(s), rel=1e-8)

    def test_improper_gets_direct_part(self):
        # (s^2 + 3 s + 3)/(s+1) = s + 2 + 1/(s+1)
        rf = RationalFunction([1.0, 3.0, 3.0], [1.0, 1.0])
        direct, terms = rf.partial_fractions()
        assert np.allclose(direct, [1.0, 2.0])
        assert len(terms) == 1
        assert terms[0].residue == pytest.approx(1.0)

    def test_zero_function(self):
        direct, terms = RationalFunction([0.0], [1.0, 1.0]).partial_fractions()
        assert np.allclose(direct, [0.0]) and terms == []

    def test_denominator_rooted_once_per_expansion(self, monkeypatch):
        # The tolerance ladder clusters and probes the same poles four
        # times over; the denominator is rooted once.
        calls = []
        roots = np.roots
        monkeypatch.setattr(np, "roots", lambda p: calls.append(1) or roots(p))
        wz, wp = 0.25, 4.0
        rf = RationalFunction([1.0 / wz, 1.0], [1.0 / wp, 1.0, 0.0, 0.0])
        rf.partial_fractions()
        assert len(calls) == 1

    def test_poles_returns_a_fresh_copy(self):
        rf = RationalFunction.from_zpk([], [-1.0, -2.0])
        first = rf.poles()
        first[:] = 0.0
        assert np.allclose(np.sort(rf.poles().real), [-2.0, -1.0])

    def test_pole_multiplicities_clusters(self):
        rf = RationalFunction([1.0], np.polymul([1.0, 1.0 + 1e-9], [1.0, 1.0]))
        groups = rf.pole_multiplicities(tol=1e-6)
        assert len(groups) == 1 and groups[0][1] == 2

    def test_partial_fraction_term_call(self):
        term = PartialFractionTerm(pole=-1.0, order=2, residue=3.0)
        assert term(0.0) == pytest.approx(3.0)

    def test_term_vectorized(self):
        term = PartialFractionTerm(pole=0.0, order=1, residue=1.0)
        out = term(np.array([1.0, 2.0]))
        assert np.allclose(out, [1.0, 0.5])
