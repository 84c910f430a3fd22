"""Span runtime: the enabled switch, nested spans, counters, hooks.

This is the instrumentation half of :mod:`repro.obs`.  Design rule number
one: **the layer is free when off.**  Every instrumented call site guards
with :func:`enabled` (one module-global bool read) and, even unguarded,
:func:`span` returns a shared no-op context manager while disabled — no
allocation, no clock reads, no lock.  The disabled overhead is benchmarked
below 2% on the grid-evaluation hot path
(``benchmarks/bench_obs_overhead.py``).

Enabling
--------
Set ``REPRO_OBS=1`` in the environment before the process starts, or call
:func:`enable` / :func:`disable` at runtime; ``REPRO_OBS=profile`` also
runs the sampling profiler in every campaign worker (:mod:`repro.obs.profile`).  ``REPRO_OBS_EXPORT=path``
additionally dumps the final registry snapshot as JSON at interpreter exit
(handy for benchmarks and one-shot scripts).

Span model
----------
``span(name, **tags)`` opens a nested tracing span: on entry it pushes
``name`` onto a thread-local stack and reads the monotonic wall clock
(``perf_counter``) and the CPU clock (``process_time``); on exit it folds
``(path, tags) -> (count, wall, cpu, min/max, thread id, pid)`` into the
process-global :class:`~repro.obs.registry.ObsRegistry`, where *path* is
the ``/``-joined chain of enclosing span names — so the same grid kernel
shows up separately under ``campaign.point/...`` and under a bare sweep.
Tags may be added mid-span with :meth:`Span.tag` (the campaign executor
tags points with their terminal status this way).

Profiling hooks
---------------
:func:`add_hook` registers a callable receiving one event dict per
finished span (``{"type": "span", "path", "tags", "wall", "cpu"}``) —
enough to bridge to cProfile, flamegraph emitters or live dashboards.
Hook exceptions are swallowed (and counted under ``obs.hook_errors``):
observability must never take down the computation it observes.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from typing import Any, Callable

from repro.obs.registry import ObsRegistry, snapshot_delta

__all__ = [
    "NullSpan",
    "Span",
    "add",
    "add_hook",
    "enable",
    "enabled",
    "disable",
    "health_event",
    "observe",
    "registry",
    "remove_hook",
    "reset",
    "set_profile_paths",
    "snapshot",
    "span",
]

#: ``REPRO_OBS`` values that turn the layer on (``profile`` adds the profiler).
_LEVELS = {"1", "true", "yes", "on", "profile"}

_enabled: bool = os.environ.get("REPRO_OBS", "").strip().lower() in _LEVELS
_registry = ObsRegistry()
_local = threading.local()
_hooks: list[Callable[[dict[str, Any]], None]] = []

# Installed by repro.obs.profile while a sampler is running: a plain
# {thread_id: active span path} dict the sampler can read cross-thread
# (thread-locals cannot be).  ``None`` — the default — keeps the span
# hot path at one extra global read.
_profile_paths: dict[int, str] | None = None


def set_profile_paths(registry: dict[int, str] | None) -> None:
    """Install (or remove) the profiler's cross-thread span-path registry."""
    global _profile_paths
    _profile_paths = registry


def enabled() -> bool:
    """Whether observability is recording (one global-bool read, no lock)."""
    return _enabled


def enable() -> None:
    """Turn recording on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn recording off (already-collected buckets are kept)."""
    global _enabled
    _enabled = False


def registry() -> ObsRegistry:
    """The process-global registry."""
    return _registry


def snapshot() -> dict[str, Any]:
    """Picklable snapshot of the process-global registry."""
    return _registry.snapshot()


def delta(before: dict[str, Any]) -> dict[str, Any]:
    """Activity since ``before`` (a prior :func:`snapshot` of this process)."""
    return snapshot_delta(before, _registry.snapshot())


def reset() -> None:
    """Drop every collected bucket (the enabled flag is untouched)."""
    _registry.reset()


def _stack() -> list[str]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class NullSpan:
    """Shared do-nothing span handed out while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def tag(self, **tags) -> "NullSpan":
        return self


_NULL_SPAN = NullSpan()


class Span:
    """One live nested span (use via ``with obs.span(...)``)."""

    __slots__ = ("name", "tags", "path", "_wall0", "_cpu0")

    def __init__(self, name: str, tags: dict[str, Any]):
        self.name = name
        self.tags = tags
        self.path = name

    def tag(self, **tags) -> "Span":
        """Attach/overwrite tags mid-span (before exit folds the bucket)."""
        self.tags.update(tags)
        return self

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            self.path = f"{stack[-1]}/{self.name}"
        stack.append(self.path)
        profiled = _profile_paths
        if profiled is not None:
            profiled[threading.get_ident()] = self.path
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        stack = _stack()
        if stack and stack[-1] == self.path:
            stack.pop()
        profiled = _profile_paths
        if profiled is not None:
            tid = threading.get_ident()
            if stack:
                profiled[tid] = stack[-1]
            else:
                profiled.pop(tid, None)
        _registry.record_span(
            self.path, self.tags, wall, cpu, threading.get_ident()
        )
        if _hooks:
            _dispatch(
                {
                    "type": "span",
                    "path": self.path,
                    "tags": dict(self.tags),
                    "wall": wall,
                    "cpu": cpu,
                }
            )
        return False


def span(name: str, **tags) -> Span | NullSpan:
    """Open a nested tracing span (no-op singleton while disabled)."""
    if not _enabled:
        return _NULL_SPAN
    return Span(name, tags)


def add(name: str, value: float = 1.0, **tags) -> None:
    """Accumulate a typed counter (no-op while disabled)."""
    if _enabled:
        _registry.add(name, value, tags)


def observe(name: str, value: float, **tags) -> None:
    """Record one histogram observation (no-op while disabled)."""
    if _enabled:
        _registry.observe(name, value, tags)


def health_event(
    name: str,
    value: float,
    threshold: float,
    *,
    severity: str = "warning",
    direction: str = "above",
    message: str = "",
    **tags,
) -> None:
    """Emit one numerical-health diagnostics event (no-op while disabled).

    Events fold into bounded ``(name, tags, severity)`` buckets keeping the
    emit count and the worst observation — see :mod:`repro.obs.health` for
    the severity model and the probe inventory.  The emitting span path (if
    any) is attached as provenance.  ``direction='above'`` marks values that
    should stay *below* the threshold (residuals, condition numbers);
    ``'below'`` marks values that should stay above it (``|1 + lambda|``).

    When a distributed trace context is active (request- or campaign-level,
    see :mod:`repro.obs.trace`), its ``trace_id`` is attached so a bad
    ``|1 + lambda|`` margin on a lease worker joins back to the request
    that asked for it.
    """
    if not _enabled:
        return
    stack = getattr(_local, "stack", None)
    path = stack[-1] if stack else None
    from repro.obs import trace as _trace

    ctx = _trace.context_or_campaign()
    _registry.record_event(
        name,
        severity,
        value,
        threshold,
        tags,
        direction=direction,
        message=message,
        path=path,
        trace_id=ctx.trace_id if ctx is not None else None,
    )


# -- profiling hooks -------------------------------------------------------------


def add_hook(hook: Callable[[dict[str, Any]], None]) -> None:
    """Register a per-span-event callback (opt-in profiling hook API)."""
    if hook not in _hooks:
        _hooks.append(hook)


def remove_hook(hook: Callable[[dict[str, Any]], None]) -> None:
    """Unregister a previously added hook (missing hooks are ignored)."""
    try:
        _hooks.remove(hook)
    except ValueError:
        pass


def _dispatch(event: dict[str, Any]) -> None:
    for hook in list(_hooks):
        try:
            hook(event)
        except Exception:
            _registry.add("obs.hook_errors", 1.0, {})


# -- atexit export ---------------------------------------------------------------


def _export_at_exit(path: str) -> None:
    try:
        snap = _registry.snapshot()
        with open(path, "w") as handle:
            json.dump(snap, handle, sort_keys=True, indent=2)
            handle.write("\n")
    except Exception:
        pass  # never let teardown instrumentation raise


_export_path = os.environ.get("REPRO_OBS_EXPORT", "").strip()
if _export_path:
    atexit.register(_export_at_exit, _export_path)
