"""repro.obs — zero-dependency observability: spans, counters, hooks.

A lightweight tracing/metrics layer for the hot paths of this library:
batched HTM grid evaluation, the rank-one closed-loop solve, the grid
cache, and the campaign executor.  Three design rules:

1. **Free when off.**  Disabled (the default), every entry point reduces
   to one module-global bool read; ``span()`` hands back a shared no-op.
   Overhead on the grid-eval hot path is benchmarked < 2%
   (``benchmarks/bench_obs_overhead.py``).
2. **Aggregate, never trace-log.**  Observations fold into bounded
   ``(path, tags)`` buckets (:mod:`repro.obs.registry`); a 10k-point
   campaign produces kilobytes, not gigabytes.
3. **Picklable across processes.**  ``snapshot()`` is plain-dict data;
   campaign workers ship per-point deltas that the coordinator merges —
   the same pattern the grid cache uses for its counters.

Quick start::

    from repro import obs

    obs.enable()                      # or REPRO_OBS=1 in the environment
    with obs.span("my.analysis", points=200):
        closed.frequency_response(grid)
    print(obs.summary())

    # campaigns: run with REPRO_OBS=1, then inspect the store
    #   repro obs summary results.jsonl
    #   repro obs top results.jsonl -n 10
    #   repro obs export results.jsonl --json

See ``docs/OBSERVABILITY.md`` for the span model and CLI examples.
"""

from __future__ import annotations

from repro.obs.health import (
    CheckResult,
    format_health,
    max_severity,
    severity_counts,
    worst_events,
)
from repro.obs.manifest import (
    build_manifest,
    check_manifest,
    load_manifest,
    manifest_path,
    spec_fingerprint,
    write_manifest,
)
from repro.obs.profile import (
    Profiler,
    merge_profiles,
    profile_requested,
    to_collapsed,
    to_flamegraph_html,
    top_frames,
)
from repro.obs.prom import sanitize_metric_name, to_prometheus
from repro.obs.registry import (
    CounterStat,
    HealthStat,
    HistogramStat,
    ObsRegistry,
    SpanStat,
    histogram_quantiles,
    merge_snapshots,
    snapshot_delta,
)
from repro.obs.report import (
    format_summary,
    format_top,
    load_snapshot,
    to_chrome_trace,
    to_csv,
    to_json,
)
from repro.obs.slo import (
    BurnWindow,
    SLISpec,
    SLODefinition,
    SLOMonitor,
    default_campaign_slos,
    default_serve_slos,
    evaluate_slos,
    evaluate_store,
    format_slo_report,
    load_slo_spec,
    parse_slo_spec,
)
from repro.obs.resources import (
    current_rss_bytes,
    peak_rss_bytes,
    tracemalloc_requested,
)
from repro.obs.spans import (
    NullSpan,
    Span,
    add,
    add_hook,
    delta,
    disable,
    enable,
    enabled,
    health_event,
    observe,
    registry,
    remove_hook,
    reset,
    snapshot,
    span,
)
from repro.obs.trace import (
    LogReader,
    TraceContext,
    build_chrome_trace,
    critical_path_summary,
    format_critical_path,
    format_traceparent,
    new_context,
    parse_traceparent,
    trace_dir,
)

__all__ = [
    "BurnWindow",
    "CheckResult",
    "CounterStat",
    "HealthStat",
    "HistogramStat",
    "LogReader",
    "NullSpan",
    "ObsRegistry",
    "Profiler",
    "SLISpec",
    "SLODefinition",
    "SLOMonitor",
    "Span",
    "SpanStat",
    "TraceContext",
    "add",
    "add_hook",
    "build_chrome_trace",
    "build_manifest",
    "check_manifest",
    "critical_path_summary",
    "current_rss_bytes",
    "default_campaign_slos",
    "default_serve_slos",
    "delta",
    "disable",
    "enable",
    "enabled",
    "evaluate_slos",
    "evaluate_store",
    "format_critical_path",
    "format_health",
    "format_slo_report",
    "format_summary",
    "format_top",
    "format_traceparent",
    "health_event",
    "histogram_quantiles",
    "load_manifest",
    "load_slo_spec",
    "load_snapshot",
    "manifest_path",
    "max_severity",
    "merge_profiles",
    "merge_snapshots",
    "new_context",
    "observe",
    "parse_slo_spec",
    "parse_traceparent",
    "peak_rss_bytes",
    "profile_requested",
    "registry",
    "remove_hook",
    "reset",
    "sanitize_metric_name",
    "severity_counts",
    "snapshot",
    "snapshot_delta",
    "span",
    "spec_fingerprint",
    "summary",
    "to_chrome_trace",
    "to_collapsed",
    "to_csv",
    "to_flamegraph_html",
    "to_json",
    "to_prometheus",
    "top_frames",
    "trace_dir",
    "tracemalloc_requested",
    "worst_events",
    "write_manifest",
]


def summary() -> str:
    """Human-readable report of the current process-global registry."""
    return format_summary(snapshot())
