"""Batch adapters: N campaign points through one adapter call.

Lease batches carry several points per claim, which removes the per-point
dispatch overhead.  Each batch adapter here is registered (via
:func:`repro.campaign.tasks.register_batch_task`) under the same name as a
scalar adapter, and the executor uses it transparently when
``ExecutionPolicy.vectorize`` is on.  ``band_map`` evaluates its batch
through stacked array operations; ``margins`` and ``stability_cell`` run
their scalar adapter point by point, because their margins come from
polynomial roots per design (:func:`repro.lti.bode.exact_margins`) and
leave no frequency samples to share across a stack.

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

``band_map`` groups points internally by the parameters that shape the
evaluation (``omega0``, points, order); a batch mixing shapes simply
produces several smaller stacks.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.campaign.tasks import (
    _task_backend,
    design_from_params,
    margins_task,
    register_batch_task,
    stability_cell_task,
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


def _each(
    task: Callable[[dict[str, Any]], dict[str, float]], batch: list[dict[str, Any]]
) -> list[dict[str, float] | Exception]:
    """The scalar adapter per point, each failure captured in its slot."""
    results: list[dict[str, float] | Exception] = []
    for params in batch:
        try:
            results.append(task(params))
        except Exception as exc:
            results.append(exc)
    return results


@register_batch_task("margins")
def margins_batch(batch: list[dict[str, Any]]) -> list[dict[str, float] | Exception]:
    """`margins` point by point (each design's margins come from its own roots)."""
    return _each(margins_task, batch)


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
    """`stability_cell` point by point: one ``G_z`` per design gives its z-poles
    and effective margin, and nothing is left to share across designs."""
    return _each(stability_cell_task, batch)
