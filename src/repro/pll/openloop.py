"""Open-loop gain construction (paper eqs. 27, 35 and 37).

Three views of the same loop:

* :func:`lti_open_loop` — the classical continuous-time LTI approximation
  ``A(s) = (w0/2pi) (v0/s) H_LF(s)`` (eq. 35), a rational function;
* :func:`open_loop_operator` — the full LPTV operator
  ``G = H_VCO @ H_LF @ H_PFD`` (eq. 27), whose truncated HTM feeds the dense
  reference path and the ablation benches;
* :func:`effective_gain_sum` — the effective gain
  ``lambda(s) = sum_m A(s + j m w0)`` (eq. 37) in closed form, the one
  expansion of the loop that the closed-loop HTM, the margins, the z-domain
  model, the pole search and the symbolic form all share.
"""

from __future__ import annotations

import cmath
from typing import Callable

import numpy as np

from repro._errors import ValidationError
from repro.core.aliasing import AliasedSum
from repro.core.operators import HarmonicOperator, LTIOperator, SeriesOperator
from repro.lti.rational import RationalFunction
from repro.lti.transfer import TransferFunction
from repro.pll.architecture import PLL


def lti_open_loop(pll: PLL, pade_order: int = 0) -> TransferFunction:
    """The classical LTI open-loop gain ``A(s)`` of eq. (35).

    The factor ``w0/2pi`` in front arises from the sampling-PFD impulse
    weight (eq. 19); the VCO contributes ``v0/s``.

    Parameters
    ----------
    pade_order:
        When the loop has a transport delay, a Padé approximation of this
        order is folded in (the exact exponential is irrational).  The
        default 0 raises instead of silently approximating.

    Raises
    ------
    ValidationError
        For a sample-and-hold PFD: the hold transfer is irrational, so use
        :func:`open_loop_callable` instead.
    """
    from repro.blocks.pfd import SampleHoldPFD

    if isinstance(pll.pfd, SampleHoldPFD):
        raise ValidationError(
            "sample-and-hold PFD has an irrational (ZOH) transfer; use "
            "open_loop_callable for A(s)"
        )
    vco_tf = pll.vco.lti_transfer()
    gain = pll.pfd.gain
    a = gain * vco_tf * pll.h_lf
    if pll.has_delay:
        if pade_order < 1:
            raise ValidationError(
                "loop has a transport delay; pass pade_order >= 1 for a rational "
                "A(s) or use open_loop_callable for the exact response"
            )
        a = a * pll.delay.pade(pade_order)
    return TransferFunction.from_rational(a.rational, name="A")


def open_loop_callable(pll: PLL) -> Callable[[complex | np.ndarray], complex | np.ndarray]:
    """Exact scalar open-loop gain ``A(s)`` as a callable.

    Includes irrational loop elements a rational
    :class:`TransferFunction` cannot represent: transport delay and the
    zero-order hold of a sample-and-hold PFD.
    """
    from repro.blocks.pfd import SampleHoldPFD

    vco_tf = pll.vco.lti_transfer()
    h_lf = pll.h_lf
    gain = pll.pfd.gain
    delay = pll.delay
    hold = pll.pfd.hold_transfer if isinstance(pll.pfd, SampleHoldPFD) else None

    def a_of_s(s):
        value = gain * np.asarray(vco_tf(s), dtype=complex) * np.asarray(h_lf(s), dtype=complex)
        if hold is not None:
            value = value * np.asarray(hold(s), dtype=complex)
        if delay is not None:
            value = value * delay.transfer(s)
        return value

    return a_of_s


def isf_harmonics(pll: PLL) -> list[tuple[int, complex]]:
    """The non-zero ISF harmonics ``(k, v_k)`` as the sampler sees them.

    Sampling ``t_off`` into the period is the offset-free loop observed
    ``t_off`` later, so the VCO's ISF appears advanced by ``t_off``: ``v_k``
    becomes ``v_k e^{j k w0 t_off}``.  A time-invariant VCO has only ``v_0``.
    """
    isf = pll.vco.isf
    advance = 1j * pll.omega0 * pll.pfd.sampling_offset
    return [
        (k, isf.coefficient(k) * cmath.exp(k * advance))
        for k in range(-isf.order, isf.order + 1)
        if isf.coefficient(k) != 0
    ]


def has_closed_form(pll: PLL) -> bool:
    """True when :func:`effective_gain_sum` applies: impulse-sampling PFD, no delay.

    Any sampling offset and any ISF qualify: the sampler's row and column
    phases cancel in ``lambda`` term by term, and the offset's advance of
    the ISF (:func:`isf_harmonics`) rides in the summands.  A transport
    delay or a sample-and-hold PFD makes the summand irrational; those loops
    take the truncated sum.
    """
    from repro.blocks.pfd import SampleHoldPFD

    return not (pll.has_delay or isinstance(pll.pfd, SampleHoldPFD))


def effective_gain_sum(pll: PLL) -> AliasedSum:
    """The effective open-loop gain ``lambda(s)`` (eq. 37) in closed form.

    ``lambda = sum_n l_n V_n`` (eq. 33) is the aliasing sum of
    ``sum_k B_k(sig)``, ``B_k(sig) = (w0/2pi) v_k H_LF(sig) / (sig + j k w0)``,
    over the ISF harmonics of :func:`isf_harmonics`; a time-invariant VCO
    leaves ``B_0 = A``.  The sum is memoized on content (:meth:`AliasedSum.of`), so
    a design is expanded into partial fractions once.

    Raises
    ------
    ValidationError
        For a loop without the closed form (:func:`has_closed_form`).
    """
    if not has_closed_form(pll):
        raise ValidationError(
            "the closed-form effective gain needs an impulse-sampling PFD and no "
            "transport delay; use method='truncated'"
        )
    omega0 = pll.omega0
    gain = pll.pfd.gain
    h_lf = pll.h_lf.rational
    summands = [
        RationalFunction((gain * vk) * h_lf.num, np.convolve(h_lf.den, [1.0, 1j * k * omega0]))
        for k, vk in isf_harmonics(pll)
    ]
    return AliasedSum.of(summands, omega0)


def open_loop_operator(pll: PLL) -> HarmonicOperator:
    """The full LPTV open-loop operator ``G = H_VCO @ H_LF @ H_PFD`` (eq. 27).

    The loop delay (if any) is inserted between filter and VCO; since both
    are diagonal the placement is immaterial.
    """
    lf_op = LTIOperator(pll.h_lf, pll.omega0)
    chain: HarmonicOperator = SeriesOperator(lf_op, pll.pfd.operator())
    if pll.has_delay:
        chain = SeriesOperator(pll.delay.operator(), chain)
    return SeriesOperator(pll.vco.operator(), chain)
