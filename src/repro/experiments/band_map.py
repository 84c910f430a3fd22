"""Closed-loop band-conversion map — the paper's Fig. 2 picture, quantified.

For the closed loop the rank-one structure gives band transfers
``H_{n,0}(j w) = V_n(j w) / (1 + lambda(j w))``: reference-band content
re-emerges around *every* VCO harmonic.  This experiment tabulates the peak
conversion gain per output band versus loop speed — the frequency-conversion
behaviour that distinguishes the LPTV description from any LTI model (whose
map would be a single diagonal entry).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_order, ignore_backend
from repro.core.grid import FrequencyGrid
from repro.pll.closedloop import ClosedLoopHTM
from repro.pll.design import design_typical_loop


@dataclass(frozen=True)
class BandMapResult:
    """Peak |H_{n,0}| per output band and ratio."""

    ratios: np.ndarray
    bands: np.ndarray  # output band indices n
    peak_gains: np.ndarray  # shape (len(ratios), len(bands))

    def row(self, ratio: float) -> dict[int, float]:
        """Mapping ``n -> peak gain`` for the given (exact) ratio."""
        idx = int(np.argmin(np.abs(self.ratios - ratio)))
        return {int(n): float(g) for n, g in zip(self.bands, self.peak_gains[idx])}


def run_band_map(
    ratios=(0.05, 0.1, 0.2),
    bands: int = 3,
    omega0: float = 2 * np.pi,
    points: int = 120,
    backend=None,
) -> BandMapResult:
    """Sweep |H_{n,0}(j w)| over the baseband and record per-band peaks.

    ``backend`` is deprecated and ignored.
    """
    ignore_backend(backend)
    check_order("bands", bands, minimum=1)
    ratios_arr = np.asarray(ratios, dtype=float)
    band_idx = np.arange(-bands, bands + 1)
    peaks = np.zeros((ratios_arr.size, band_idx.size))
    grid = FrequencyGrid.linear(0.01 * omega0, 0.49 * omega0, points)
    for i, ratio in enumerate(ratios_arr):
        pll = design_typical_loop(omega0=omega0, omega_ug=float(ratio) * omega0)
        closed = ClosedLoopHTM(pll)
        lam = closed.effective_gain_response(grid)
        # One batched column evaluation covers every output band at once.
        cols = closed.vtilde_grid(grid, bands)
        peaks[i] = np.max(np.abs(cols / (1.0 + lam)[:, None]), axis=0)
    return BandMapResult(ratios=ratios_arr, bands=band_idx, peak_gains=peaks)


def format_table(result: BandMapResult) -> str:
    """Printable map: rows = ratios, columns = output bands."""
    header = "  ".join(f"n={int(n):+d}" for n in result.bands)
    lines = [
        "Band-conversion map — peak |H_{n,0}| over the baseband",
        f"{'wUG/w0':>8}  {header}",
    ]
    for ratio, row in zip(result.ratios, result.peak_gains):
        cells = "  ".join(f"{g:6.3f}" for g in row)
        lines.append(f"{ratio:>8.3g}  {cells}")
    lines.append("(an LTI model has a single non-zero column: n = 0)")
    return "\n".join(lines)
