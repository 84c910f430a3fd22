"""Tests for repro.symbolic — expression tree and loop closed forms."""

import numpy as np
import pytest

from repro._errors import ValidationError
from repro.pll.architecture import PLL
from repro.pll.closedloop import ClosedLoopHTM
from repro.pll.design import design_typical_loop
from repro.pll.openloop import lti_open_loop
from repro.symbolic import (
    Add,
    Func,
    Mul,
    Num,
    Pow,
    Sym,
    coth_of,
    effective_gain_expression,
    exp_of,
    h00_expression,
    open_loop_expression,
)
from repro.symbolic.expr import polynomial_in
from repro.symbolic.loop import evaluate_on_grid

W0 = 2 * np.pi
S = Sym("s")


class TestExprBasics:
    def test_num_evaluate(self):
        assert Num(3.5).evaluate({}) == 3.5

    def test_sym_evaluate(self):
        assert S.evaluate({"s": 2j}) == 2j

    def test_sym_missing_value(self):
        with pytest.raises(ValidationError):
            S.evaluate({})

    def test_sym_name_validated(self):
        with pytest.raises(ValidationError):
            Sym("")

    def test_arithmetic_evaluation(self):
        expr = (S + 1) * (S - 2) / (S**2 + 4)
        s = 0.7 + 0.3j
        expected = (s + 1) * (s - 2) / (s**2 + 4)
        assert expr.evaluate({"s": s}) == pytest.approx(expected)

    def test_negation_and_rsub(self):
        expr = 1 - (-S)
        assert expr.evaluate({"s": 2.0}) == pytest.approx(3.0)

    def test_pow_requires_integer(self):
        with pytest.raises(TypeError):
            S**0.5

    def test_coerce_rejects_junk(self):
        with pytest.raises(TypeError):
            S + "x"

    def test_coth_evaluates(self):
        expr = coth_of(S)
        assert expr.evaluate({"s": 1.0}) == pytest.approx(1 / np.tanh(1.0))

    def test_exp_evaluates(self):
        assert exp_of(S).evaluate({"s": 1j}) == pytest.approx(np.exp(1j))

    def test_unknown_function_rejected(self):
        with pytest.raises(ValidationError):
            Func("tan", S)

    def test_symbols_collected(self):
        expr = (Sym("a") + Sym("b")) * coth_of(Sym("c"))
        assert expr.symbols() == frozenset({"a", "b", "c"})


class TestSimplification:
    def test_constant_folding_add(self):
        assert Add.of(Num(2), Num(3)) == Num(5)

    def test_constant_folding_mul(self):
        assert Mul.of(Num(2), Num(3)) == Num(6)

    def test_nested_constants_merge(self):
        expr = Mul.of(Num(2), Mul.of(Num(3), S))
        assert isinstance(expr, Mul)
        nums = [f for f in expr.factors if isinstance(f, Num)]
        assert len(nums) == 1 and nums[0].value == 6

    def test_zero_annihilates_product(self):
        assert Mul.of(Num(0), coth_of(S)) == Num(0)

    def test_pow_identities(self):
        assert Pow.of(S, 0) == Num(1)
        assert Pow.of(S, 1) is S
        assert Pow.of(Pow.of(S, 2), 3).exponent == 6

    def test_empty_add_is_zero(self):
        assert Add.of() == Num(0)


class TestRendering:
    def test_plain_text(self):
        expr = (S + 1) / S**2
        text = expr.render()
        assert "s" in text and "^2" in text

    def test_latex_fraction(self):
        expr = Num(1.0) / S
        assert r"\frac" in expr.latex()

    def test_latex_coth(self):
        assert r"\coth" in coth_of(S).latex()

    def test_subscript_symbol(self):
        assert Sym("w_ug").latex() == "w_{ug}"

    def test_negative_constant_renders_with_sign(self):
        text = (S - 3).render()
        assert "- 3" in text

    def test_polynomial_in(self):
        expr = polynomial_in(S, [1.0, 0.0, 2.0])  # 1 + 2 s^2
        assert expr.evaluate({"s": 3.0}) == pytest.approx(19.0)


@pytest.fixture(scope="module")
def pll():
    return design_typical_loop(omega0=W0, omega_ug=0.1 * W0)


class TestLoopExpressions:
    def test_open_loop_matches_numeric(self, pll):
        expr = open_loop_expression(pll)
        a = lti_open_loop(pll)
        for s in (0.1j * W0, 0.3 + 0.2j):
            assert expr.evaluate({"s": s}) == pytest.approx(complex(a(s)), rel=1e-10)

    def test_effective_gain_matches_numeric(self, pll):
        expr = effective_gain_expression(pll)
        closed = ClosedLoopHTM(pll)
        for s in (0.07j * W0, 0.21j * W0, 0.4 + 0.1j * W0):
            assert expr.evaluate({"s": s}) == pytest.approx(
                closed.effective_gain(s), rel=1e-9
            )

    def test_h00_matches_numeric(self, pll):
        expr = h00_expression(pll)
        closed = ClosedLoopHTM(pll)
        s = 0.13j * W0
        assert expr.evaluate({"s": s}) == pytest.approx(closed.h00(s), rel=1e-9)

    def test_expression_contains_coth(self, pll):
        text = effective_gain_expression(pll).render()
        assert "coth" in text

    def test_only_free_symbol_is_s(self, pll):
        assert effective_gain_expression(pll).symbols() == frozenset({"s"})

    def test_lptv_vco_supported(self):
        from repro.blocks.vco import VCO
        from repro.signals.isf import ImpulseSensitivity

        base = design_typical_loop(omega0=W0, omega_ug=0.08 * W0)
        lptv = PLL(
            pfd=base.pfd,
            charge_pump=base.charge_pump,
            filter_impedance=base.filter_impedance,
            vco=VCO(ImpulseSensitivity.sinusoidal(1.0, 0.3, W0)),
        )
        expr = h00_expression(lptv)
        closed = ClosedLoopHTM(lptv)
        s = 0.11j * W0
        assert expr.evaluate({"s": s}) == pytest.approx(closed.h00(s), rel=1e-8)

    def test_offset_loop_matches_numeric(self, pll):
        """A sampling offset leaves lambda unchanged, so the symbolic form
        follows the numeric closed form there too."""
        from repro.blocks.pfd import SamplingPFD

        shifted = PLL(
            pfd=SamplingPFD(W0, sampling_offset=0.3),
            charge_pump=pll.charge_pump,
            filter_impedance=pll.filter_impedance,
            vco=pll.vco,
        )
        expr = effective_gain_expression(shifted)
        closed = ClosedLoopHTM(shifted)
        for s in (0.07j * W0, 0.21j * W0, 0.4 + 0.1j * W0):
            assert expr.evaluate({"s": s}) == pytest.approx(
                closed.effective_gain(s), rel=1e-10
            )

    def test_delay_rejected(self, pll):
        from repro.blocks.delay import LoopDelay

        delayed = PLL(
            pfd=pll.pfd,
            charge_pump=pll.charge_pump,
            filter_impedance=pll.filter_impedance,
            vco=pll.vco,
            delay=LoopDelay(0.01, W0),
        )
        with pytest.raises(ValidationError):
            effective_gain_expression(delayed)

    def test_evaluate_on_grid(self, pll):
        expr = effective_gain_expression(pll)
        closed = ClosedLoopHTM(pll)
        s_grid = 1j * np.array([0.05, 0.15, 0.25]) * W0
        sym_vals = evaluate_on_grid(expr, s_grid)
        num_vals = closed.effective_gain(s_grid)
        assert np.allclose(sym_vals, num_vals, rtol=1e-9)

    def test_latex_output_wellformed(self, pll):
        tex = h00_expression(pll).latex()
        assert tex.count("{") == tex.count("}")
        assert r"\coth" in tex
