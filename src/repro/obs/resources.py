"""Process resource observability: RSS tracking, tracemalloc, memory budgets.

Campaign points that bloat memory are as dangerous as points that hang: a
single design point whose truncated HTM allocation grows past the machine
leads to an OOM-killed worker whose batch another worker must take over.
This module gives the campaign executor cheap, always-available memory
facts and an opt-in allocation profile:

* :func:`peak_rss_bytes` — the process-lifetime peak resident set size
  (one ``getrusage`` call, normalised to bytes across platforms);
* :func:`current_rss_bytes` — the instantaneous RSS (``/proc/self/status``
  on Linux, falling back to the peak elsewhere) — what heartbeats report;
* per-point probes (:func:`point_probe_begin` / :func:`point_probe_end`)
  recording the peak RSS and its per-point growth into point records, plus
  ``tracemalloc`` top allocation sites when ``REPRO_OBS_MEM=1``;
* a **memory budget sentinel**: configure a budget (``configure(...)`` or
  the executor's ``memory_budget_mb`` policy knob) and any point whose
  peak RSS exceeds it is flagged ``over_budget`` in its record and emits a
  ``campaign.memory_budget`` warning health event.

Everything here is stdlib-only and never raises into the computation it
observes — probe failures degrade to zeros.
"""

from __future__ import annotations

import os
import sys
from typing import Any

from repro.obs import spans as _spans

__all__ = [
    "configure",
    "current_rss_bytes",
    "memory_budget_bytes",
    "peak_rss_bytes",
    "point_probe_begin",
    "point_probe_end",
    "tracemalloc_requested",
]

_TRUTHY = {"1", "true", "yes", "on"}

#: Top allocation sites kept per point when tracemalloc profiling is on.
TOP_ALLOCATIONS = 3

_budget_bytes: int | None = None


def tracemalloc_requested() -> bool:
    """Whether per-point tracemalloc profiling is requested (``REPRO_OBS_MEM=1``).

    Tracemalloc multiplies allocation cost, so it is opt-in on top of the
    usual observability switch, mirroring ``REPRO_OBS_SMW_CHECK``.
    """
    return os.environ.get("REPRO_OBS_MEM", "").strip().lower() in _TRUTHY


def configure(budget_mb: float | None = None) -> None:
    """Set (or clear) the per-point memory budget for this process.

    The executor calls this in every lease worker and on the serial path,
    so the budget travels with the :class:`ExecutionPolicy`.
    """
    global _budget_bytes
    _budget_bytes = None if budget_mb is None else int(float(budget_mb) * 1e6)


def memory_budget_bytes() -> int | None:
    """The configured per-point budget in bytes, or ``None``."""
    return _budget_bytes


def peak_rss_bytes() -> int:
    """Process-lifetime peak RSS in bytes (0 where unavailable).

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; both are
    normalised here.  The value is monotonic — it never shrinks when
    memory is freed — which is exactly what a "did this point bloat the
    worker" sentinel wants.
    """
    try:
        import resource

        raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:
        return 0
    if sys.platform == "darwin":
        return int(raw)
    return int(raw) * 1024


def current_rss_bytes() -> int:
    """Instantaneous RSS in bytes (Linux ``/proc``; peak RSS elsewhere)."""
    try:
        with open("/proc/self/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1]) * 1024
    except Exception:
        pass
    return peak_rss_bytes()


def ensure_tracemalloc() -> bool:
    """Start tracemalloc if requested and not yet tracing; report tracing."""
    if not tracemalloc_requested():
        return False
    try:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
        return True
    except Exception:
        return False


def point_probe_begin() -> dict[str, Any]:
    """Capture the pre-point memory state (cheap; tracemalloc only if on)."""
    state: dict[str, Any] = {"peak": peak_rss_bytes(), "tm": None}
    if ensure_tracemalloc():
        try:
            import tracemalloc

            state["tm"] = tracemalloc.take_snapshot()
        except Exception:
            state["tm"] = None
    return state


def _top_allocations(before: Any) -> list[dict[str, Any]]:
    import tracemalloc

    after = tracemalloc.take_snapshot()
    stats = after.compare_to(before, "lineno")[:TOP_ALLOCATIONS]
    out = []
    for stat in stats:
        frame = stat.traceback[0]
        out.append(
            {
                "site": f"{os.path.basename(frame.filename)}:{frame.lineno}",
                "size_bytes": int(stat.size_diff),
                "count": int(stat.count_diff),
            }
        )
    return out


def point_probe_end(state: dict[str, Any]) -> dict[str, Any]:
    """Build the ``mem`` section of a point record and run the budget check."""
    peak = peak_rss_bytes()
    mem: dict[str, Any] = {
        "rss_peak": peak,
        "rss_delta": max(peak - int(state.get("peak", 0)), 0),
    }
    if state.get("tm") is not None:
        try:
            mem["alloc_top"] = _top_allocations(state["tm"])
        except Exception:
            pass
    budget = _budget_bytes
    if budget is not None and peak > budget:
        mem["over_budget"] = True
        _spans.health_event(
            "campaign.memory_budget",
            float(peak),
            float(budget),
            severity="warning",
            direction="above",
            message=(
                f"point peak RSS {peak / 1e6:.0f} MB exceeded the "
                f"{budget / 1e6:.0f} MB budget"
            ),
        )
    return mem
