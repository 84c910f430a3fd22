"""Effective stability margins of the time-varying loop (paper Fig. 7).

Classical analysis reads bandwidth and phase margin off ``A(j omega)``.  The
paper's point is that the *effective* open-loop gain
``lambda(s) = sum_m A(s + j m w0)`` is what the closed loop actually divides
by (eq. 38), so margins must be measured on ``lambda``:

* the effective unity-gain frequency ``w_UG,eff`` grows above ``w_UG`` as
  ``w_UG / w0`` increases (closed-loop bandwidth extends);
* the effective phase margin collapses — "for w_UG/w0 = 0.1 this phase
  margin is already 9% worse than predicted by LTI analysis" (sec. 5).

:func:`compare_margins` measures both on one loop; :func:`margin_sweep`
produces the Fig. 7 series over a range of ``w_UG / w0``.

Two paths compute the same numbers, and the loop picks one:

* **Roots** (no grid): every loop with the closed form
  ``lambda(s) = G(e^{sT})`` of :func:`~repro.pll.openloop.effective_gain_sum`
  (impulse-sampling PFD and no delay, :func:`~repro.pll.openloop.has_closed_form`;
  any sampling offset, ISF or relative degree).  Each crossover is a root
  of a polynomial: of ``|N(j omega)|^2 - |D(j omega)|^2`` for ``A``, and
  the unit-circle root of the self-reciprocal
  ``N(z) z^n conj(N)(1/z) - D(z) z^n conj(D)(1/z)`` for ``lambda``; the
  unwrapped phase comes from the zero and pole angles
  (:func:`~repro.lti.bode.exact_margins`).
* **Scan**: the other loops (sample-and-hold PFD, delay) and
  ``method='truncated'`` sample ``points`` frequencies and refine the last
  crossing with Brent's method (:func:`~repro.lti.bode.gain_crossover`,
  :func:`~repro.lti.bode.phase_margin`).  The scan is also the roots path's
  test oracle, and its fallback when the roots cannot settle the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro._errors import ValidationError
from repro._validation import ignore_backend
from repro.core.grid import FrequencyGrid
from repro.lti.bode import crossover_from_samples  # noqa: F401 - perfbench/tracing.py wraps it here
from repro.lti.bode import exact_margins, gain_crossover, phase_margin
from repro.pll.architecture import PLL
from repro.pll.closedloop import ClosedLoopHTM
from repro.pll.openloop import (
    effective_gain_sum,
    has_closed_form,
    lti_open_loop,
    open_loop_callable,
)


@dataclass(frozen=True)
class EffectiveMargins:
    """LTI versus effective (time-varying) loop margins.

    Attributes
    ----------
    omega_ug_lti / phase_margin_lti_deg:
        Unity-gain frequency and phase margin of the classical ``A(s)``.
    omega_ug_eff / phase_margin_eff_deg:
        Same quantities measured on the effective gain ``lambda(s)``.
    """

    omega_ug_lti: float
    phase_margin_lti_deg: float
    omega_ug_eff: float
    phase_margin_eff_deg: float

    @property
    def bandwidth_extension(self) -> float:
        """``w_UG,eff / w_UG`` — the upper Fig. 7 quantity."""
        return self.omega_ug_eff / self.omega_ug_lti

    @property
    def margin_degradation(self) -> float:
        """Fractional phase-margin loss relative to the LTI prediction."""
        return 1.0 - self.phase_margin_eff_deg / self.phase_margin_lti_deg

    def summary(self) -> str:
        """Human-readable comparison line."""
        return (
            f"LTI: wUG={self.omega_ug_lti:.4g} PM={self.phase_margin_lti_deg:.2f} deg | "
            f"effective: wUG={self.omega_ug_eff:.4g} PM={self.phase_margin_eff_deg:.2f} deg "
            f"({100 * self.margin_degradation:.1f}% worse)"
        )


def effective_open_loop(pll: PLL, **closed_loop_kwargs) -> Callable[[np.ndarray], np.ndarray]:
    """The effective gain ``lambda(j omega)`` as a margin-tool-ready callable.

    Loops without the closed form (sample-and-hold PFD, delay) automatically
    fall back to the truncated sum.
    """
    if "method" not in closed_loop_kwargs and not has_closed_form(pll):
        closed_loop_kwargs["method"] = "truncated"
        closed_loop_kwargs.setdefault("harmonics", 400)
    closed = ClosedLoopHTM(pll, **closed_loop_kwargs)
    return closed.effective_gain_response


def _window(
    omega0: float,
    omega_min_factor: float,
    omega_max_factor: float | None,
    grid: FrequencyGrid | None = None,
) -> tuple[float, float]:
    """The margin window ``[w_lo, w_hi]``: the grid's bounds, else the factors."""
    if grid is not None:
        w_lo = float(grid.omega[0])
        w_hi = float(grid.omega[-1])
        if not 0 < w_lo < w_hi:
            raise ValidationError("margin scan grid must be positive and increasing")
        return w_lo, w_hi
    if omega_max_factor is None:
        omega_max_factor = 0.499
    if not 0 < omega_min_factor < omega_max_factor:
        raise ValidationError("need 0 < omega_min_factor < omega_max_factor")
    return omega_min_factor * omega0, omega_max_factor * omega0


def _sampled_form(pll: PLL, closed_loop_kwargs: dict):
    """``G`` with ``lambda(s) = G(e^{sT})`` for the roots path, else ``None`` (the scan).

    An explicit ``method='truncated'`` keeps the scan.
    """
    if closed_loop_kwargs.get("method", "closed") != "closed" or not has_closed_form(pll):
        return None
    return effective_gain_sum(pll).z


def _margin_pair(system, scan_response, w_lo: float, w_hi: float, points: int):
    """``(w_ug, pm)`` from the roots of ``system`` when it is given and they
    settle the answer, else by scanning ``scan_response()``."""
    pair = None if system is None else exact_margins(system, w_lo, w_hi)
    if pair is not None:
        return pair
    response = scan_response()
    w_ug = gain_crossover(response, w_lo, w_hi, points)
    return w_ug, phase_margin(response, w_lo, w_hi, points, w_ug=w_ug)


def _open_loop_response(pll: PLL) -> Callable[[np.ndarray], np.ndarray]:
    """``A(j omega)`` from the exact callable, which covers irrational loop
    elements (ZOH hold, delay) that the rational ``A(s)`` cannot represent."""
    a_fn = open_loop_callable(pll)

    def response(omega):
        return np.asarray(a_fn(1j * np.asarray(omega, dtype=float)), dtype=complex)

    return response


def compare_margins(
    pll: PLL,
    omega_min_factor: float = 1e-3,
    omega_max_factor: float | None = None,
    points: int = 4000,
    grid: FrequencyGrid | None = None,
    backend=None,
    **closed_loop_kwargs,
) -> EffectiveMargins:
    """Measure LTI and effective margins of one loop design.

    The window is expressed relative to the reference frequency: from
    ``omega_min_factor * w0`` up to ``omega_max_factor * w0`` (default just
    below the ``w0/2`` alias symmetry point, beyond which lambda repeats).
    Passing a :class:`~repro.core.grid.FrequencyGrid` instead pins the window
    to that grid's bounds (and a scan to its point count), overriding the
    factor arguments.  ``backend`` is deprecated and ignored.

    Loops with ``lambda(s) = G(e^{sT})`` take both margins from polynomial
    roots; the others scan ``points`` samples (see the module docstring).
    """
    ignore_backend(backend)
    w_lo, w_hi = _window(pll.omega0, omega_min_factor, omega_max_factor, grid)
    if grid is not None:
        points = len(grid)
    sampled = _sampled_form(pll, closed_loop_kwargs)
    w_ug_lti, pm_lti = _margin_pair(
        None if sampled is None else lti_open_loop(pll).rational,
        lambda: _open_loop_response(pll),
        w_lo,
        w_hi,
        points,
    )
    w_ug_eff, pm_eff = _margin_pair(
        sampled,
        lambda: effective_open_loop(pll, **closed_loop_kwargs),
        w_lo,
        w_hi,
        points,
    )
    return EffectiveMargins(
        omega_ug_lti=w_ug_lti,
        phase_margin_lti_deg=pm_lti,
        omega_ug_eff=w_ug_eff,
        phase_margin_eff_deg=pm_eff,
    )


def effective_margin(
    pll: PLL,
    omega_min_factor: float = 1e-3,
    omega_max_factor: float | None = None,
    points: int = 4000,
    **closed_loop_kwargs,
) -> tuple[float, float]:
    """``(omega_ug_eff, phase_margin_eff_deg)``: the effective half of :func:`compare_margins`.

    Unlike :func:`compare_margins` it needs no LTI ``A(s)``, so it also
    measures loops with an LPTV VCO.
    """
    w_lo, w_hi = _window(pll.omega0, omega_min_factor, omega_max_factor)
    return _margin_pair(
        _sampled_form(pll, closed_loop_kwargs),
        lambda: effective_open_loop(pll, **closed_loop_kwargs),
        w_lo,
        w_hi,
        points,
    )


def compare_margins_batch(
    plls: Sequence[PLL],
    omega_min_factor: float = 1e-3,
    omega_max_factor: float | None = None,
    points: int = 4000,
    backend=None,
    **closed_loop_kwargs,
) -> list[EffectiveMargins | Exception]:
    """:func:`compare_margins` over many designs, one slot per design.

    One failing design never poisons the batch: its slot carries the
    exception (``ConvergenceError``, ``ValidationError``, ...) that
    :func:`compare_margins` raised for it, and the other slots complete.
    Each result is the scalar call's, bit for bit.  ``backend`` is
    deprecated and ignored.
    """
    ignore_backend(backend)
    results: list[EffectiveMargins | Exception] = []
    for pll in plls:
        try:
            results.append(
                compare_margins(
                    pll,
                    omega_min_factor,
                    omega_max_factor,
                    points,
                    **closed_loop_kwargs,
                )
            )
        except Exception as exc:  # captured per slot
            results.append(exc)
    return results


def margin_sweep(
    ratios: Sequence[float] | np.ndarray,
    designer: Callable[[float], PLL],
    points: int = 3000,
    backend=None,
    **closed_loop_kwargs,
) -> list[EffectiveMargins]:
    """Sweep ``w_UG / w0`` and collect margins — the Fig. 7 data series.

    Parameters
    ----------
    ratios:
        Target ``w_UG / w0`` values (each must lie in (0, 0.5)).
    designer:
        Callable mapping a ratio to a :class:`PLL` (typically
        :func:`repro.pll.design.design_typical_loop` with everything else
        fixed).
    backend:
        Deprecated and ignored.
    """
    ignore_backend(backend)
    out = []
    for ratio in np.asarray(ratios, dtype=float):
        if not 0.0 < ratio < 0.5:
            raise ValidationError(
                f"w_UG/w0 ratio must lie in (0, 0.5) below the alias fold, got {ratio}"
            )
        pll = designer(float(ratio))
        out.append(compare_margins(pll, points=points, **closed_loop_kwargs))
    return out
