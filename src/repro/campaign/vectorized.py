"""Vectorized batch adapters: N campaign points through one stacked evaluation.

Lease batches carry several points per claim, which removes the per-point
dispatch overhead; these adapters remove the per-point *math* overhead by
evaluating a whole batch through stacked array operations instead of N
scalar closures.  Each batch adapter here is registered (via
:func:`repro.campaign.tasks.register_batch_task`) under the same name as a
scalar adapter, and the executor uses it transparently when
``ExecutionPolicy.vectorize`` is on.

The contract is strict — the scalar adapter is the correctness oracle:

* Output is **bitwise identical** to calling the scalar adapter per point.
  That is achievable because numpy elementwise ufuncs and per-row
  reductions on a stacked ``(K, ...)`` array produce exactly the same bits
  as the same operation on each row alone; anything that is not (sums in a
  different association order, say) must stay per-point.
* One point's failure is carried as its slot's exception — exactly the
  exception the scalar adapter would have raised — and never poisons the
  rest of the batch.
* A raised exception from the adapter itself marks the whole batch
  unusable; the executor then falls back to the scalar path per point, so
  a batch bug degrades performance, never correctness.

Points are grouped internally by the parameters that shape the evaluation
(grid bounds, point counts, order, backend); a batch mixing shapes simply
produces several smaller stacks.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.campaign.tasks import (
    _task_backend,
    design_from_params,
    register_batch_task,
)

__all__ = ["band_map_batch", "margins_batch", "stability_cell_batch"]


def _grouped(
    batch: list[dict[str, Any]],
    key_fn: Callable[[dict[str, Any]], tuple],
) -> "dict[tuple, list[int]]":
    groups: dict[tuple, list[int]] = {}
    for i, params in enumerate(batch):
        try:
            key = key_fn(params)
        except Exception:
            key = ("__malformed__", i)
        groups.setdefault(key, []).append(i)
    return groups


def _margins_metrics(margins) -> dict[str, float]:
    return {
        "omega_ug_lti": margins.omega_ug_lti,
        "phase_margin_lti_deg": margins.phase_margin_lti_deg,
        "omega_ug_eff": margins.omega_ug_eff,
        "phase_margin_eff_deg": margins.phase_margin_eff_deg,
        "bandwidth_extension": margins.bandwidth_extension,
        "margin_degradation": margins.margin_degradation,
    }


@register_batch_task("margins")
def margins_batch(batch: list[dict[str, Any]]) -> list[dict[str, float] | Exception]:
    """Vectorized `margins`: stacked magnitude scan, shared response samples.

    Uses :func:`repro.pll.margins.compare_margins_batch`, which evaluates
    each design's ``A`` and ``lambda`` once (the scalar path evaluates each
    twice) and runs the unity-crossing scan across the stacked design axis.
    """
    from repro.pll.margins import compare_margins_batch

    results: list[dict[str, float] | Exception] = [None] * len(batch)  # type: ignore[list-item]
    groups = _grouped(
        batch,
        lambda p: (
            float(p.get("omega0", 2 * math.pi)),
            int(p.get("points", 4000)),
            p.get("backend"),
        ),
    )
    for indices in groups.values():
        points = int(batch[indices[0]].get("points", 4000))
        plls = []
        live: list[int] = []
        for i in indices:
            try:
                with _task_backend(batch[i]):
                    plls.append(design_from_params(batch[i]))
                live.append(i)
            except Exception as exc:
                results[i] = exc
        if not plls:
            continue
        with _task_backend(batch[live[0]]):
            outcomes = compare_margins_batch(plls, points=points)
        for i, outcome in zip(live, outcomes):
            results[i] = (
                outcome if isinstance(outcome, Exception) else _margins_metrics(outcome)
            )
    return results


@register_batch_task("band_map")
def band_map_batch(batch: list[dict[str, Any]]) -> list[dict[str, float] | Exception]:
    """Vectorized `band_map`: shared grid, stacked band-map reductions.

    Designs sharing ``(omega0, points, order)`` reuse one
    :class:`~repro.core.grid.FrequencyGrid`; their band-transfer maps are
    stacked into one ``(K, N, B, B)`` array whose per-design peak
    reductions run in a single vectorized pass (per-row max over a stacked
    array is bitwise identical to the scalar per-design max).
    """
    from repro.core.grid import FrequencyGrid
    from repro.core.operators import FeedbackOperator
    from repro.core.sweep import band_transfer_map
    from repro.pll.openloop import open_loop_operator

    results: list[dict[str, float] | Exception] = [None] * len(batch)  # type: ignore[list-item]
    groups = _grouped(
        batch,
        lambda p: (
            float(p.get("omega0", 2 * math.pi)),
            int(p.get("points", 32)),
            int(p.get("order", 4)),
        ),
    )
    for indices in groups.values():
        order = int(batch[indices[0]].get("order", 4))
        points = int(batch[indices[0]].get("points", 32))
        grid = None
        maps = []
        live: list[int] = []
        for i in indices:
            try:
                with _task_backend(batch[i]):
                    pll = design_from_params(batch[i])
                    if grid is None:
                        grid = FrequencyGrid.baseband(pll.omega0, points=points)
                    maps.append(
                        band_transfer_map(
                            FeedbackOperator(open_loop_operator(pll)), grid, order
                        )
                    )
                live.append(i)
            except Exception as exc:
                results[i] = exc
        if not maps:
            continue
        stack = np.stack(maps)  # (K, N, B, B)
        center = order
        diag = stack[:, :, center, center]  # (K, N)
        off = stack.copy()
        off[:, :, center, center] = 0.0
        diag_peak = np.max(diag, axis=1)  # per-design reductions, one pass
        off_peak = np.max(off, axis=(1, 2, 3))
        for row, i in enumerate(live):
            results[i] = {
                "baseband_peak": float(diag_peak[row]),
                "baseband_peak_db": float(20.0 * np.log10(diag_peak[row])),
                "max_conversion_gain": float(off_peak[row]),
            }
    return results


@register_batch_task("stability_cell")
def stability_cell_batch(batch: list[dict[str, Any]]) -> list[dict[str, float] | Exception]:
    """Vectorized `stability_cell`: per-point z-domain + grouped margin scans.

    The z-domain pole analysis is cheap and stays per-point; the expensive
    effective-margin scan runs through the grouped
    :func:`~repro.pll.margins.compare_margins_batch` path.  A design whose
    margin scan fails records ``nan`` for ``phase_margin_eff_deg`` exactly
    like the scalar adapter's ``_nan_safe`` wrapper.
    """
    from repro.baselines.zdomain import closed_loop_z, sampled_open_loop
    from repro.pll.design import shape_phase_margin_deg
    from repro.pll.margins import compare_margins_batch

    results: list[dict[str, float] | Exception] = [None] * len(batch)  # type: ignore[list-item]
    groups = _grouped(
        batch,
        lambda p: (
            float(p.get("omega0", 2 * math.pi)),
            int(p.get("points", 2000)),
            p.get("backend"),
        ),
    )
    for indices in groups.values():
        points = int(batch[indices[0]].get("points", 2000))
        plls = []
        partial: list[dict[str, float]] = []
        live: list[int] = []
        for i in indices:
            try:
                with _task_backend(batch[i]):
                    pll = design_from_params(batch[i])
                    closed = closed_loop_z(sampled_open_loop(pll))
                    poles = closed.poles()
                    radius = float(np.max(np.abs(poles))) if poles.size else 0.0
                    partial.append(
                        {
                            "z_stable": 1.0 if closed.is_stable() else 0.0,
                            "z_pole_radius": radius,
                            "lti_phase_margin_deg": shape_phase_margin_deg(
                                float(batch[i].get("separation", 4.0))
                            ),
                        }
                    )
                    plls.append(pll)
                live.append(i)
            except Exception as exc:
                results[i] = exc
        if not plls:
            continue
        with _task_backend(batch[live[0]]):
            outcomes = compare_margins_batch(plls, points=points)
        for row, i in enumerate(live):
            out = dict(partial[row])
            outcome = outcomes[row]
            # _nan_safe semantics: a failed margin scan is a nan metric,
            # never a failed point.
            out["phase_margin_eff_deg"] = (
                float("nan")
                if isinstance(outcome, Exception)
                else outcome.phase_margin_eff_deg
            )
            results[i] = out
    return results
