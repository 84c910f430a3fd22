"""HTM-based phase-noise and jitter analysis (extension).

The paper's experiments stop at deterministic transfers, but the framework
directly supports noise shaping — the motivating application of its
references [1] (oscillator phase noise) and the natural "optional feature"
of the method.  Two injection points are modelled:

* **Reference noise** enters at ``thetaref``.  The closed-loop row
  ``H_{0,m}`` is *independent of m* (rank-one aliasing), so noise riding on
  every reference harmonic folds into the output baseband with the same
  weight ``|H00|`` — sampling aliases wideband reference noise.
* **VCO-referred noise** enters at the oscillator phase output and reaches
  the PLL output through the sensitivity ``S = (I + G)^{-1}`` (eq. 32):
  highpass-shaped, the classical result, but with ``lambda`` in place of
  ``A``.

PSDs are one-sided, in seconds^2/Hz of the phase-in-seconds convention,
on a baseband grid ``|omega| < omega0/2``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro._errors import ValidationError
from repro._validation import check_order, check_positive, ignore_backend
from repro.core.grid import FrequencyGrid, as_omega_grid
from repro.pll.architecture import PLL
from repro.pll.closedloop import ClosedLoopHTM


class NoiseAnalysis:
    """Output phase-noise composition of a locked PLL.

    ``backend`` is deprecated and ignored.
    """

    def __init__(self, pll: PLL, backend=None, **closed_loop_kwargs):
        ignore_backend(backend)
        self.pll = pll
        self.closed_loop = ClosedLoopHTM(pll, **closed_loop_kwargs)

    # -- transfers ------------------------------------------------------------

    def reference_transfer(
        self, omega: FrequencyGrid | Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """Baseband reference-to-output transfer ``H00(j omega)`` (lowpass)."""
        omega_arr = as_omega_grid("omega", omega)
        return self.closed_loop.frequency_response(omega_arr)

    def vco_transfer(
        self, omega: FrequencyGrid | Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """Baseband VCO-to-output sensitivity ``1 - H00(j omega)`` (highpass)."""
        omega_arr = as_omega_grid("omega", omega)
        return np.asarray(
            self.closed_loop.sensitivity_element(1j * omega_arr, 0, 0), dtype=complex
        )

    def folded_reference_gain(
        self, omega: FrequencyGrid | Sequence[float] | np.ndarray, bands: int
    ) -> np.ndarray:
        """Total power gain for reference noise folded from ``2*bands+1`` bands.

        ``sum_{|m| <= bands} |H_{0,m}(j omega)|^2``.  Because the rank-one
        row makes all ``|H_{0,m}|`` equal, this is ``(2*bands+1) |H00|^2`` —
        the closed-form statement of the sampler's noise-folding penalty.
        """
        omega_arr = as_omega_grid("omega", omega)
        bands = check_order("bands", bands, minimum=0)
        h00 = np.abs(self.closed_loop.frequency_response(omega_arr)) ** 2
        return (2 * bands + 1) * h00

    # -- PSD composition ---------------------------------------------------------

    def output_psd(
        self,
        omega: FrequencyGrid | Sequence[float] | np.ndarray,
        reference_psd: Callable[[np.ndarray], np.ndarray] | None = None,
        vco_psd: Callable[[np.ndarray], np.ndarray] | None = None,
        folded_bands: int = 0,
    ) -> np.ndarray:
        """Output phase PSD from uncorrelated reference and VCO noise sources.

        Parameters
        ----------
        reference_psd, vco_psd:
            Callables mapping ``omega`` (rad/s) to one-sided PSD values; a
            missing source contributes zero.
        folded_bands:
            Number of reference harmonic bands (per side) whose noise is
            assumed white-identical and folds through the sampler.
        """
        omega_arr = as_omega_grid("omega", omega)
        total = np.zeros(omega_arr.size)
        if reference_psd is not None:
            gain = self.folded_reference_gain(omega_arr, folded_bands)
            total += gain * np.asarray(reference_psd(omega_arr), dtype=float)
        if vco_psd is not None:
            gain = np.abs(self.vco_transfer(omega_arr)) ** 2
            total += gain * np.asarray(vco_psd(omega_arr), dtype=float)
        return total

    def rms_jitter(
        self,
        omega: FrequencyGrid | Sequence[float] | np.ndarray,
        psd: Sequence[float] | np.ndarray,
    ) -> float:
        """RMS timing jitter (seconds) from a sampled one-sided phase PSD.

        Integrates ``sigma^2 = (1/2pi) * integral S(omega) d omega`` with the
        trapezoid rule on the supplied grid.
        """
        omega_arr = as_omega_grid("omega", omega)
        psd_arr = np.asarray(psd, dtype=float)
        if psd_arr.shape != omega_arr.shape:
            raise ValidationError("psd and omega grids must match")
        if np.any(psd_arr < 0):
            raise ValidationError("PSD values must be non-negative")
        if np.any(np.diff(omega_arr) <= 0):
            raise ValidationError("omega grid must be strictly increasing")
        variance = np.trapezoid(psd_arr, omega_arr) / (2 * np.pi)
        return float(np.sqrt(variance))


def seconds_psd_to_dbc_hz(
    psd_seconds2_per_hz: float | np.ndarray, carrier_frequency_hz: float
) -> float | np.ndarray:
    """Convert a phase PSD from seconds^2/Hz to the usual L(f) in dBc/Hz.

    Phase in radians is ``phi = 2 pi f_c theta``; the single-sideband noise
    convention is ``L(f) = S_phi(f) / 2`` for small angles.
    """
    check_positive("carrier_frequency_hz", carrier_frequency_hz)
    psd = np.asarray(psd_seconds2_per_hz, dtype=float)
    if np.any(psd < 0):
        raise ValidationError("PSD values must be non-negative")
    rad2 = (2 * np.pi * carrier_frequency_hz) ** 2 * psd
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(rad2 / 2.0)
    if np.ndim(psd_seconds2_per_hz) == 0:
        return float(out)
    return out


def dbc_hz_to_seconds_psd(
    dbc_hz: float | np.ndarray, carrier_frequency_hz: float
) -> float | np.ndarray:
    """Inverse of :func:`seconds_psd_to_dbc_hz`."""
    if carrier_frequency_hz <= 0:
        raise ValidationError("carrier frequency must be positive")
    level = np.asarray(dbc_hz, dtype=float)
    rad2 = 2.0 * 10.0 ** (level / 10.0)
    out = rad2 / (2 * np.pi * carrier_frequency_hz) ** 2
    if np.ndim(dbc_hz) == 0:
        return float(out)
    return out


def flat_psd(level: float) -> Callable[[np.ndarray], np.ndarray]:
    """White-noise PSD factory: constant ``level`` at every frequency."""
    if level < 0:
        raise ValidationError(f"PSD level must be non-negative, got {level}")

    def psd(omega: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(omega, dtype=float).shape, float(level))

    return psd


def one_over_f2_psd(level_at: float, omega_ref: float) -> Callable[[np.ndarray], np.ndarray]:
    """Oscillator-like ``1/omega^2`` PSD with value ``level_at`` at ``omega_ref``."""
    if level_at < 0 or omega_ref <= 0:
        raise ValidationError("need level_at >= 0 and omega_ref > 0")

    def psd(omega: np.ndarray) -> np.ndarray:
        omega_arr = np.asarray(omega, dtype=float)
        with np.errstate(divide="ignore"):
            return level_at * (omega_ref / np.abs(omega_arr)) ** 2

    return psd
