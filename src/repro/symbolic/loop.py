"""Symbolic closed forms of the loop quantities.

Builders turning a :class:`~repro.pll.architecture.PLL` into expression
trees in the Laplace symbol ``s``:

* :func:`open_loop_expression` — ``A(s)`` as a ratio of polynomials
  (paper eq. 35);
* :func:`effective_gain_expression` — ``lambda(s)`` as the *finite* sum of
  coth terms obtained by applying the elementary aliasing identities to the
  partial fractions of the numeric closed form
  (:func:`~repro.pll.openloop.effective_gain_sum`; the symbolic counterpart
  of eq. 37)::

      sum_m 1/(s - p + j m w0)^k
        = (-1)^(k-1) c^k / (k-1)! * P_k(coth(c (s - p))),   c = T/2

  with ``P_k`` the polynomials of :func:`repro.core.aliasing._alias_poly`;
* :func:`h00_expression` — ``A(s) / (1 + lambda(s))`` (eq. 38).

The expressions are numerically exact: evaluating them reproduces the
numeric :class:`~repro.pll.closedloop.ClosedLoopHTM` values to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.aliasing import _alias_poly
from repro.lti.rational import RationalFunction
from repro.pll.architecture import PLL
from repro.pll.openloop import effective_gain_sum, isf_harmonics, lti_open_loop
from repro.symbolic.expr import Add, Expr, Mul, Num, Sym, coth_of, polynomial_in

S = Sym("s")


def _rational_expression(rf: RationalFunction, variable: Expr = S) -> Expr:
    """Expression for a rational function (descending-coefficient arrays)."""
    num = polynomial_in(variable, rf.num[::-1])
    den = polynomial_in(variable, rf.den[::-1])
    return num / den


def open_loop_expression(pll: PLL) -> Expr:
    """Symbolic ``A(s)`` of paper eq. (35)."""
    return _rational_expression(lti_open_loop(pll).rational)


def _elementary_sum_expression(pole: complex, order: int, omega0: float) -> Expr:
    """Symbolic ``sum_m 1/(s - pole + j m w0)^order`` via the coth identity."""
    c = math.pi / omega0  # T/2
    y = coth_of(Mul.of(Num(c), Add.of(S, Num(-pole))))
    poly_coeffs = _alias_poly(order)
    poly = polynomial_in(y, poly_coeffs)
    scale = (-1.0) ** (order - 1) * c**order / math.factorial(order - 1)
    return Mul.of(Num(scale), poly)


def effective_gain_expression(pll: PLL, round_tol: float = 1e-10) -> Expr:
    """Symbolic ``lambda(s)`` — the closed-form aliasing sum of eq. (37).

    Takes its ``(residue, pole, order)`` terms from the numeric closed form,
    so it applies to the same loops (impulse-sampling PFD, no delay; any
    sampling offset) and supports LPTV ISFs through one summand per ISF
    harmonic.

    Parameters
    ----------
    round_tol:
        Residues with magnitude below ``round_tol`` times the largest are
        dropped to keep the expression readable.
    """
    terms = effective_gain_sum(pll).terms
    if not terms:
        return Num(0.0)
    scale = max(abs(t.residue) for t in terms)
    return Add.of(
        *(
            Mul.of(Num(t.residue), _elementary_sum_expression(t.pole, t.order, pll.omega0))
            for t in terms
            if abs(t.residue) >= round_tol * scale
        )
    )


def h00_expression(pll: PLL) -> Expr:
    """Symbolic baseband closed-loop transfer ``H00(s) = A(s)/(1 + lambda(s))``.

    For an LPTV VCO the numerator generalises to ``V_0(s)`` — the paper's
    eq. (34) row element — which for the time-invariant case is ``A(s)``.
    """
    lam = effective_gain_expression(pll)
    if pll.vco.is_time_invariant():
        numerator = open_loop_expression(pll)
    else:
        numerator = _vtilde0_expression(pll)
    return numerator / (Num(1.0) + lam)


def _vtilde0_expression(pll: PLL) -> Expr:
    """Symbolic ``V_0(s) = (w0/2pi) sum_k v_k H_LF(s - j k w0) / s`` (``v_k`` of
    :func:`~repro.pll.openloop.isf_harmonics`)."""
    omega0 = pll.omega0
    h_lf = pll.h_lf.rational
    terms: list[Expr] = []
    for k, vk in isf_harmonics(pll):
        shifted = h_lf.shifted(-1j * k * omega0)
        terms.append(Mul.of(Num(vk), _rational_expression(shifted)))
    total = Add.of(*terms) if terms else Num(0.0)
    return Mul.of(Num(pll.pfd.gain), total) / S


def evaluate_on_grid(expr: Expr, s_values) -> np.ndarray:
    """Evaluate an expression over an array of complex frequencies."""
    s_arr = np.asarray(s_values, dtype=complex)
    return np.array([expr.evaluate({"s": complex(s)}) for s in s_arr.ravel()]).reshape(
        s_arr.shape
    )
