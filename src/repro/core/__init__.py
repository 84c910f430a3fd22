"""Harmonic transfer matrix (HTM) core — the paper's formalism (sec. 2).

An LPTV system ``y(t) = integral h(t, tau) u(t - tau) dtau`` with T-periodic
kernel is represented in the frequency domain by the doubly-infinite matrix

    H[n, m](s) = H_{n-m}(s + j m w0)                      (paper eq. 5)

whose element ``(n, m)`` describes how signal content in the band around
``m * w0`` at the input transfers to the band around ``n * w0`` at the
output (Fig. 2).  This package provides:

* :class:`~repro.core.operators.HarmonicOperator` — lazy, composable
  operators (LTI embedding, memoryless multiplication, impulse-train
  sampling, ISF-weighted integration, series/parallel/feedback);
* :class:`~repro.core.htm.HTM` — a dense truncated snapshot at one ``s``;
* :mod:`~repro.core.rank_one` — the Sherman–Morrison–Woodbury closure that
  turns the infinite-matrix loop inversion into scalar arithmetic
  (paper eqs. 29–34);
* :mod:`~repro.core.aliasing` — exact closed forms for the aliasing sums
  ``sum_m F(s + j m w0)`` as pole groups of ``z = e^{sT}`` (paper eq. 37);
* :mod:`~repro.core.sweep` / :mod:`~repro.core.truncation` — frequency
  sweeps, band-transfer maps and automatic truncation-order selection.
"""

from repro.core.grid import FrequencyGrid, as_omega_grid, as_s_grid
from repro.core.htm import HTM
from repro.core.memo import GridEvalCache, cache_stats, clear_cache, grid_cache
from repro.core.structured import StructuredGrid
from repro.core.operators import (
    HarmonicOperator,
    IdentityOperator,
    LTIOperator,
    MultiplicationOperator,
    ParallelOperator,
    SamplingOperator,
    ScaledOperator,
    SeriesOperator,
    FeedbackOperator,
    IsfIntegrationOperator,
    default_element_order,
)
from repro.core.rank_one import (
    RankOneHTM,
    smw_closed_loop,
    smw_closed_loop_grid,
    smw_inverse_apply,
)
from repro.core.aliasing import AliasedSum, truncated_alias_sum
from repro.core.kernel import KernelReconstruction, reconstruct_kernel
from repro.core.sweep import band_transfer_map, sweep_element, sweep_matrix
from repro.core.truncation import TruncationReport, choose_truncation_order

__all__ = [
    "StructuredGrid",
    "FrequencyGrid",
    "as_omega_grid",
    "as_s_grid",
    "GridEvalCache",
    "grid_cache",
    "cache_stats",
    "clear_cache",
    "default_element_order",
    "HTM",
    "HarmonicOperator",
    "IdentityOperator",
    "LTIOperator",
    "MultiplicationOperator",
    "ParallelOperator",
    "SamplingOperator",
    "ScaledOperator",
    "SeriesOperator",
    "FeedbackOperator",
    "IsfIntegrationOperator",
    "RankOneHTM",
    "smw_closed_loop",
    "smw_closed_loop_grid",
    "smw_inverse_apply",
    "AliasedSum",
    "truncated_alias_sum",
    "KernelReconstruction",
    "reconstruct_kernel",
    "band_transfer_map",
    "sweep_element",
    "sweep_matrix",
    "TruncationReport",
    "choose_truncation_order",
]
