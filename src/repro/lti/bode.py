"""Bode-domain analysis: crossover frequencies, phase/gain margins, peaking.

All routines work on a *frequency response*, i.e. any object that can be
evaluated on the imaginary axis.  Accepted forms:

* :class:`~repro.lti.transfer.TransferFunction` /
  :class:`~repro.lti.rational.RationalFunction` (rational systems), or
* any callable ``f(omega_array) -> complex array`` — which is how the
  *non-rational* effective open-loop gain ``lambda(j omega)`` of the paper
  (an infinite aliasing sum) is analysed with exactly the same tooling.

That last point is the paper's selling pitch: "being a frequency-domain
description, it allows us to recover powerful tools and concepts from the
theory of LTI systems, like transfer functions and phase margin, for
analyzing PLL time-varying behavior" (sec. 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro._errors import ConvergenceError, ValidationError

ResponseLike = Callable[[np.ndarray], np.ndarray]


def as_response(system) -> ResponseLike:
    """Normalise a system object into a vectorized ``omega -> H(j omega)`` callable."""
    if hasattr(system, "eval_jomega"):
        return system.eval_jomega
    if hasattr(system, "frequency_response"):
        return system.frequency_response
    if callable(system):
        return lambda omega: np.asarray(system(np.asarray(omega, dtype=float)), dtype=complex)
    raise ValidationError(f"cannot interpret {type(system).__name__} as a frequency response")


@dataclass(frozen=True)
class BodePoint:
    """One point of a Bode characteristic."""

    omega: float
    magnitude_db: float
    phase_deg: float


@dataclass(frozen=True)
class MarginReport:
    """Stability margins of an open-loop frequency response.

    Attributes
    ----------
    gain_crossover_omega:
        Unity-gain frequency ``omega_UG`` (rad/s), ``nan`` if none found.
    phase_margin_deg:
        ``180 + arg H(j omega_UG)`` in degrees, ``nan`` if no crossover.
    phase_crossover_omega:
        Frequency where the phase crosses -180 degrees, ``nan`` if none.
    gain_margin_db:
        ``-20 log10 |H|`` at the phase crossover, ``nan`` if none.
    """

    gain_crossover_omega: float
    phase_margin_deg: float
    phase_crossover_omega: float
    gain_margin_db: float


def bode_points(system, omega: Sequence[float] | np.ndarray) -> list[BodePoint]:
    """Sample a system into :class:`BodePoint` records with unwrapped phase."""
    omega_arr = np.asarray(omega, dtype=float)
    response = as_response(system)(omega_arr)
    mags = 20.0 * np.log10(np.abs(response))
    phases = np.degrees(np.unwrap(np.angle(response)))
    return [BodePoint(float(w), float(m), float(p)) for w, m, p in zip(omega_arr, mags, phases)]


def _log_grid(omega_min: float, omega_max: float, points: int) -> np.ndarray:
    if omega_min <= 0 or omega_max <= omega_min:
        raise ValidationError(
            f"need 0 < omega_min < omega_max, got [{omega_min}, {omega_max}]"
        )
    return np.logspace(math.log10(omega_min), math.log10(omega_max), points)


def _refine_crossing(
    func: Callable[[float], float], w_lo: float, w_hi: float
) -> float:
    """Bisect a sign change of ``func`` between two frequencies (log-spaced)."""
    from scipy.optimize import brentq  # on first use: most processes never need scipy

    return float(
        math.exp(brentq(lambda lw: func(math.exp(lw)), math.log(w_lo), math.log(w_hi), xtol=1e-13))
    )


def crossover_from_samples(
    response: ResponseLike,
    grid: np.ndarray,
    mags: np.ndarray,
    omega_min: float,
    omega_max: float,
    which: str = "last",
) -> float:
    """Unity-gain crossover given precomputed ``|H|`` samples on ``grid``.

    This is the scan+refine core of :func:`gain_crossover`, split out so
    batch callers that already evaluated the response on the grid (e.g. one
    stacked ``dense_grid`` call across a parameter axis) can reuse the
    samples instead of re-evaluating.  Given identical samples it returns a
    bit-identical result to :func:`gain_crossover` — same bracket selection,
    same Brent refinement, same error message.
    """
    logmag = np.log(np.where(mags > 0, mags, np.finfo(float).tiny))
    signs = np.sign(logmag)
    idx = np.nonzero(np.diff(signs) != 0)[0]
    if idx.size == 0:
        raise ConvergenceError(
            f"|H| never crosses unity on [{omega_min}, {omega_max}] "
            f"(range [{mags.min():.3g}, {mags.max():.3g}])"
        )
    pick = idx[-1] if which == "last" else idx[0]

    def objective(w: float) -> float:
        return float(np.log(np.abs(response(np.array([w]))[0])))

    return _refine_crossing(objective, grid[pick], grid[pick + 1])


def gain_crossover(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
    which: str = "last",
) -> float:
    """Frequency where ``|H(j omega)|`` crosses unity.

    Scans a logarithmic grid, then refines each bracketing interval with
    Brent's method.  ``which`` selects ``'first'`` or ``'last'`` crossing
    (``'last'`` is the conservative choice for margin analysis of gain
    characteristics with ripple, such as the aliased ``lambda``).

    Raises
    ------
    ConvergenceError
        If the magnitude never crosses unity on the scanned range.
    """
    response = as_response(system)
    grid = _log_grid(omega_min, omega_max, points)
    mags = np.abs(response(grid))
    return crossover_from_samples(response, grid, mags, omega_min, omega_max, which)


def phase_at(system, omega: float) -> float:
    """Phase of ``H(j omega)`` in degrees, principal value in (-180, 180]."""
    value = as_response(system)(np.array([float(omega)]))[0]
    return math.degrees(math.atan2(value.imag, value.real))


def phase_margin(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
    w_ug: float | None = None,
) -> float:
    """Phase margin in degrees: ``180 + arg H(j omega_UG)``.

    The phase is unwrapped along the scan from ``omega_min`` up to the gain
    crossover so that loops whose phase dips below -180 degrees (the fast-PLL
    failure mode the paper quantifies) report a *negative* margin instead of
    a wrapped-around positive one.

    A caller that already knows the gain crossover (e.g. from a preceding
    :func:`gain_crossover` call on the same response) may pass it as
    ``w_ug`` to skip recomputing it; the result is identical by
    construction since ``gain_crossover`` is deterministic.
    """
    if w_ug is None:
        w_ug = gain_crossover(system, omega_min, omega_max, points)
    response = as_response(system)
    grid = _log_grid(omega_min, w_ug, max(points // 2, 64))
    phases = np.unwrap(np.angle(response(grid)))
    return 180.0 + math.degrees(phases[-1])


def phase_crossover(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
) -> float:
    """Frequency where the unwrapped phase crosses -180 degrees.

    Raises :class:`ConvergenceError` when the phase never reaches -180 on the
    scanned range (infinite gain margin).
    """
    response = as_response(system)
    grid = _log_grid(omega_min, omega_max, points)
    phases = np.unwrap(np.angle(response(grid))) + math.pi
    signs = np.sign(phases)
    idx = np.nonzero(np.diff(signs) != 0)[0]
    if idx.size == 0:
        raise ConvergenceError(f"phase never crosses -180 deg on [{omega_min}, {omega_max}]")
    w_lo, w_hi = grid[idx[0]], grid[idx[0] + 1]
    base = phases[idx[0]] - math.pi

    def objective(w: float) -> float:
        value = response(np.array([w]))[0]
        # Local principal-value phase relative to the bracketing sample keeps
        # the unwrap consistent inside the narrow refinement interval.
        raw = math.atan2(value.imag, value.real)
        while raw - base > math.pi:
            raw -= 2 * math.pi
        while raw - base < -math.pi:
            raw += 2 * math.pi
        return raw + math.pi

    return _refine_crossing(objective, w_lo, w_hi)


def gain_margin(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
) -> float:
    """Gain margin in dB at the -180 degree phase crossover."""
    w_pc = phase_crossover(system, omega_min, omega_max, points)
    mag = abs(as_response(system)(np.array([w_pc]))[0])
    return -20.0 * math.log10(mag)


def stability_margins(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
) -> MarginReport:
    """Compute all classical margins in one report; missing ones become NaN."""
    try:
        w_ug = gain_crossover(system, omega_min, omega_max, points)
        pm = phase_margin(system, omega_min, omega_max, points)
    except ConvergenceError:
        w_ug, pm = math.nan, math.nan
    try:
        w_pc = phase_crossover(system, omega_min, omega_max, points)
        gm = gain_margin(system, omega_min, omega_max, points)
    except ConvergenceError:
        w_pc, gm = math.nan, math.nan
    return MarginReport(
        gain_crossover_omega=w_ug,
        phase_margin_deg=pm,
        phase_crossover_omega=w_pc,
        gain_margin_db=gm,
    )


def bandwidth_3db(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
    reference: str = "dc",
) -> float:
    """-3 dB bandwidth of a (closed-loop) lowpass response.

    ``reference='dc'`` measures relative to the response at the lowest
    scanned frequency; ``reference='unity'`` measures relative to 1.  The
    *last* downward crossing is returned so in-band peaking (the Fig. 6
    behaviour) does not truncate the bandwidth estimate.
    """
    response = as_response(system)
    grid = _log_grid(omega_min, omega_max, points)
    mags = np.abs(response(grid))
    if reference == "dc":
        ref = mags[0]
    elif reference == "unity":
        ref = 1.0
    else:
        raise ValidationError(f"reference must be 'dc' or 'unity', got {reference!r}")
    threshold = ref / math.sqrt(2.0)
    above = mags >= threshold
    if not above[0]:
        raise ConvergenceError("response is already below -3 dB at omega_min")
    crossings = np.nonzero(above[:-1] & ~above[1:])[0]
    if crossings.size == 0:
        raise ConvergenceError("response never falls 3 dB below the reference on the scanned range")
    pick = crossings[-1]

    def objective(w: float) -> float:
        return float(abs(response(np.array([w]))[0]) - threshold)

    return _refine_crossing(objective, grid[pick], grid[pick + 1])


def modulus_margin(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 4000,
) -> float:
    """Modulus (disk) margin: ``min over omega of |1 + L(j omega)|``.

    The distance of the Nyquist curve from the critical point — a single
    number bounding gain and phase margins simultaneously
    (``GM >= 1/(1-m)``, ``PM >= 2 asin(m/2)``).  For the sampled loop this
    is evaluated directly on the effective gain ``lambda``, whose
    periodicity makes the scan over one alias band ``[~0, w0/2]``
    sufficient.
    """
    response = as_response(system)
    grid = _log_grid(omega_min, omega_max, points)
    distances = np.abs(1.0 + response(grid))
    idx = int(np.argmin(distances))
    # Golden-section style refinement around the coarse minimum.
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, grid.size - 1)]
    fine = np.linspace(lo, hi, 200)
    return float(np.min(np.abs(1.0 + response(fine))))


def delay_margin(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
) -> float:
    """Delay margin: extra loop delay that exhausts the phase margin.

    ``tau = PM_radians / omega_UG``; raises ConvergenceError when no gain
    crossover exists on the scanned range.
    """
    w_ug = gain_crossover(system, omega_min, omega_max, points)
    pm_deg = phase_margin(system, omega_min, omega_max, points)
    return math.radians(pm_deg) / w_ug


def peaking_db(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 4000,
) -> float:
    """Peak magnitude above the DC value, in dB (0 when monotonically falling).

    Quantifies the passband-edge peaking the paper observes growing with
    ``omega_UG / omega_0`` in Fig. 6.
    """
    response = as_response(system)
    grid = _log_grid(omega_min, omega_max, points)
    mags = np.abs(response(grid))
    ref = mags[0]
    if ref <= 0:
        raise ValidationError("zero response at omega_min; peaking undefined")
    return max(0.0, 20.0 * math.log10(mags.max() / ref))
