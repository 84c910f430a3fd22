"""Figure 6: baseband closed-loop transfer ``|H00(j omega)|`` vs loop speed.

For each ``omega_UG / omega_0`` ratio: the solid HTM curve (eq. 38 evaluated
with the exact closed-form aliasing sum) on a dense normalised grid, plus
time-marching simulation marks at a handful of frequencies — the exact
protocol of the paper's Fig. 6.  As the ratio grows, the effective bandwidth
shifts right and the passband-edge peaking worsens.

Note on ratios: the paper's scanned ratios are garbled in the available
text ("omega_UG/omega = , and 5"); the loop with the Fig. 5 characteristic
(separation 4) goes *unstable* near ``omega_UG/omega_0 ~ 0.28`` (confirmed
independently by the z-domain baseline), so the default sweep uses
{0.05, 0.1, 0.2} which spans deep-LTI to visibly-time-varying behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._errors import ConvergenceError
from repro._validation import check_order, check_positive
from repro.core.grid import FrequencyGrid
from repro.lti.bode import bandwidth_3db, peaking_db
from repro.pll.closedloop import ClosedLoopHTM
from repro.pll.design import design_typical_loop


@dataclass(frozen=True)
class Fig6Curve:
    """One ratio's curve: HTM line plus simulation marks."""

    ratio: float  # omega_UG / omega_0
    omega_normalized: np.ndarray  # omega / omega_UG
    h00_db: np.ndarray
    lti_db: np.ndarray  # classical A/(1+A) for contrast
    mark_omega_normalized: np.ndarray
    mark_h00_db: np.ndarray
    mark_relative_error: np.ndarray  # |sim - htm| / |htm| at the marks
    bandwidth_normalized: float  # -3 dB bandwidth / omega_UG
    peaking_db: float


@dataclass(frozen=True)
class Fig6Result:
    """All curves of the figure."""

    separation: float
    curves: list[Fig6Curve] = field(default_factory=list)

    def max_mark_error(self) -> float:
        """Worst HTM-vs-simulation relative error across all marks (claim C1)."""
        return float(max(np.max(c.mark_relative_error) for c in self.curves))


def run_fig6(
    ratios: Sequence[float] = (0.05, 0.1, 0.2),
    separation: float = 4.0,
    omega0: float = 2 * np.pi,
    points: int = 160,
    mark_points: int = 6,
    measure_cycles: int = 200,
    discard_cycles: int = 150,
) -> Fig6Result:
    """Generate the Fig. 6 curves with simulation verification marks."""
    from repro.simulator.transfer_extraction import measure_closed_loop_transfer

    check_positive("omega0", omega0)
    check_order("points", points, minimum=8)
    check_order("mark_points", mark_points, minimum=1)
    curves = []
    for ratio in ratios:
        check_positive("ratio", ratio)
        omega_ug = ratio * omega0
        pll = design_typical_loop(omega0=omega0, omega_ug=omega_ug, separation=separation)
        closed = ClosedLoopHTM(pll)
        # Dense HTM curve on omega / omega_UG in [0.03, min(4, Nyquist margin)].
        upper = min(4.0, 0.49 / ratio)
        omega_grid = FrequencyGrid.log(0.03 * omega_ug, upper * omega_ug, points)
        grid_norm = omega_grid.omega / omega_ug
        h00 = closed.frequency_response(omega_grid)
        from repro.baselines.lti_approx import ClassicalLTIAnalysis

        lti = ClassicalLTIAnalysis(pll).closed_loop_response(omega_grid.omega)
        # Simulation marks, log-spaced across the same span.
        mark_norm = np.logspace(np.log10(0.1), np.log10(min(2.5, 0.45 / ratio)), mark_points)
        mark_vals = []
        mark_err = []
        actual_norm = []
        for wn in mark_norm:
            meas = measure_closed_loop_transfer(
                pll,
                wn * omega_ug,
                measure_cycles=measure_cycles,
                discard_cycles=discard_cycles,
            )
            predicted = closed.h00(1j * meas.omega)
            mark_vals.append(abs(meas.response))
            mark_err.append(abs(meas.response - predicted) / abs(predicted))
            actual_norm.append(meas.omega / omega_ug)
        try:
            bw = bandwidth_3db(closed, omega_grid[0], omega_grid[-1]) / omega_ug
        except ConvergenceError:
            # Very fast loops stay above -3 dB all the way to the alias fold.
            bw = float("nan")
        pk = peaking_db(closed, omega_grid[0], omega_grid[-1])
        curves.append(
            Fig6Curve(
                ratio=float(ratio),
                omega_normalized=grid_norm,
                h00_db=20.0 * np.log10(np.abs(h00)),
                lti_db=20.0 * np.log10(np.abs(lti)),
                mark_omega_normalized=np.asarray(actual_norm),
                mark_h00_db=20.0 * np.log10(np.asarray(mark_vals)),
                mark_relative_error=np.asarray(mark_err),
                bandwidth_normalized=float(bw),
                peaking_db=float(pk),
            )
        )
    return Fig6Result(separation=separation, curves=curves)


def format_table(result: Fig6Result) -> str:
    """Summary table: bandwidth shift, peaking and verification error."""
    lines = [
        "Fig. 6 — baseband closed-loop transfer H00 (HTM vs time-marching)",
        f"{'wUG/w0':>8} {'BW/wUG':>8} {'peak (dB)':>10} {'max mark err':>13}",
    ]
    for c in result.curves:
        lines.append(
            f"{c.ratio:>8.3g} {c.bandwidth_normalized:>8.3f} {c.peaking_db:>10.2f} "
            f"{100 * float(np.max(c.mark_relative_error)):>12.3f}%"
        )
    return "\n".join(lines)
