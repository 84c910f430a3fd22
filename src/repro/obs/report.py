"""Reporting over observability snapshots: summary, top-N, JSON/CSV/trace.

The ``repro obs`` CLI subcommands are thin wrappers over this module.  A
*source* is either

* a campaign result store (JSONL) — the merged obs snapshot is read from
  the final ``summary`` record (falling back to merging the per-point
  ``obs`` deltas of an interrupted run); a store with worker shards whose
  summary is missing or holds one lease worker's telemetry is instead
  folded from every worker's point records, or
* a raw obs snapshot JSON file (e.g. one written via ``REPRO_OBS_EXPORT``).

Export formats: canonical JSON (:func:`to_json`), flat CSV rows
(:func:`to_csv`, for the campaign CSV tooling), and Chrome Trace Event
Format (:func:`to_chrome_trace`, loadable by ``chrome://tracing`` and
`Perfetto <https://ui.perfetto.dev>`_).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Mapping

from repro._errors import ValidationError
from repro.obs.registry import merge_snapshots

__all__ = [
    "format_summary",
    "format_top",
    "load_snapshot",
    "summary_json",
    "to_chrome_trace",
    "to_csv",
    "to_json",
    "top_json",
]


def load_snapshot(path: str | Path) -> dict[str, Any]:
    """Load an obs snapshot from a store/export file (see module docs)."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(
            f"no obs source at {path} (expected a campaign store JSONL "
            "or an obs snapshot JSON file)"
        )
    if path.is_dir():
        raise ValidationError(
            f"obs source {path} is a directory; pass the store JSONL file "
            "or a snapshot JSON file inside it"
        )
    text = path.read_text()
    stripped = text.lstrip()
    if not stripped:
        raise ValidationError(f"{path} is empty")
    # A snapshot export is one (possibly pretty-printed) JSON object; a
    # campaign store is JSONL whose first line is the campaign header.
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "spans" in data:
        return data
    try:
        first = json.loads(stripped.splitlines()[0])
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not JSON/JSONL: {exc}") from None
    if isinstance(first, dict) and first.get("kind") == "campaign":
        return _from_store(path)
    raise ValidationError(
        f"{path} holds neither a campaign store nor an obs snapshot "
        "(expected a campaign header line or a top-level 'spans' section)"
    )


def _from_store(path: Path) -> dict[str, Any]:
    """Obs snapshot of a campaign store: last summary, else merged deltas.

    A ``--workers N`` run's summary (mode ``lease``) already folds every
    worker's records plus the caller's stall, straggler and manifest
    events.  A store of ``repro campaign worker`` processes has a summary
    holding only the finalize winner's telemetry (mode ``lease-worker``),
    or none yet; its snapshot is folded from every worker's point records.
    """
    from repro.campaign.store import ResultStore
    from repro.campaign.telemetry import CampaignTelemetry

    store = ResultStore.open(path)
    merged: dict[str, Any] | None = None
    summary: dict[str, Any] | None = None
    for record in store.records():
        if record.get("kind") == "summary" and record.get("obs"):
            summary = record
        elif record.get("kind") == "point" and record.get("obs"):
            merged = merge_snapshots(merged, record["obs"])
    if store.shard_paths() and (summary is None or summary.get("mode") == "lease-worker"):
        records = store.merged_point_records()
        folded = CampaignTelemetry(total_points=len(records)).fold(records)
        snapshot = folded.obs_snapshot()
        if snapshot is not None:
            return snapshot
    snapshot = (summary or {}).get("obs") or merged
    if snapshot is None:
        raise ValidationError(
            f"{path} holds no observability data — run the campaign with "
            "REPRO_OBS=1 (or repro.obs.enable()) to record spans"
        )
    return snapshot


def to_json(snapshot: Mapping[str, Any]) -> str:
    """Canonical JSON rendering of a snapshot."""
    return json.dumps(snapshot, sort_keys=True, indent=2)


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 100.0:
        return f"{seconds:.0f} s"
    if seconds >= 0.1:
        return f"{seconds:.2f} s"
    return f"{seconds * 1e3:.2f} ms"


def _span_rows(snapshot: Mapping[str, Any]) -> list[dict[str, Any]]:
    return list((snapshot.get("spans") or {}).values())


def format_summary(snapshot: Mapping[str, Any]) -> str:
    """Multi-section human-readable report of one snapshot."""
    lines: list[str] = []
    spans = _span_rows(snapshot)
    if spans:
        total_wall = sum(s["wall"] for s in spans)
        lines.append(
            f"spans: {len(spans)} bucket(s), "
            f"{sum(s['count'] for s in spans)} call(s), "
            f"{_fmt_seconds(total_wall)} busy (wall, incl. nesting)"
        )
        width = min(max(len(_span_label(s)) for s in spans), 64)
        for stat in sorted(spans, key=lambda s: -s["wall"]):
            mean = stat["wall"] / stat["count"] if stat["count"] else 0.0
            lines.append(
                f"  {_span_label(stat):<{width}}  "
                f"n={stat['count']:<7d} wall={_fmt_seconds(stat['wall']):>10} "
                f"cpu={_fmt_seconds(stat['cpu']):>10} "
                f"mean={_fmt_seconds(mean):>10} "
                f"procs={len(stat.get('pids') or [])}"
            )
    else:
        lines.append("spans: none recorded")
    counters = (snapshot.get("counters") or {}).values()
    if counters:
        lines.append("counters:")
        for stat in sorted(counters, key=lambda c: c["name"]):
            lines.append(
                f"  {_span_label(stat):<40}  value={stat['value']:g} "
                f"(n={stat['count']})"
            )
    histograms = (snapshot.get("histograms") or {}).values()
    if histograms:
        from repro.obs.registry import histogram_quantiles

        lines.append("histograms:")
        for stat in sorted(histograms, key=lambda h: h["name"]):
            mean = stat["total"] / stat["count"] if stat["count"] else 0.0
            quantiles = histogram_quantiles(stat)
            tail = ""
            if quantiles:
                tail = " " + " ".join(
                    f"{key.replace('_', '.')}={quantiles[key]:.3g}"
                    for key in ("p50", "p95", "p99")
                    if key in quantiles
                )
            lines.append(
                f"  {_span_label(stat):<40}  n={stat['count']} "
                f"mean={mean:g} min={stat['min']:g} max={stat['max']:g}"
                f"{tail}"
            )
    if (snapshot.get("events") or {}) or snapshot.get("events_dropped"):
        from repro.obs.health import format_health

        lines.append(format_health(snapshot))
    return "\n".join(lines)


def _span_label(stat: Mapping[str, Any]) -> str:
    tags = stat.get("tags") or {}
    if not tags:
        return str(stat["name"])
    inner = ",".join(f"{k}={tags[k]}" for k in sorted(tags))
    return f"{stat['name']}[{inner}]"


_CSV_COLUMNS = (
    "kind",
    "name",
    "tags",
    "count",
    "wall",
    "cpu",
    "value",
    "severity",
    "worst",
    "threshold",
    "message",
    "path",
)


def to_csv(snapshot: Mapping[str, Any]) -> str:
    """Flat CSV rendering of a snapshot — one row per bucket.

    All sections (spans, counters, histograms, health events) share one
    schema so the output concatenates cleanly with the campaign CSV
    tooling; columns that do not apply to a row's kind are left empty.
    Tags are rendered ``k=v`` joined with ``;``.
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_COLUMNS, extrasaction="ignore")
    writer.writeheader()

    def tag_text(stat: Mapping[str, Any]) -> str:
        tags = stat.get("tags") or {}
        return ";".join(f"{k}={tags[k]}" for k in sorted(tags))

    for stat in sorted(_span_rows(snapshot), key=lambda s: -s["wall"]):
        writer.writerow(
            {
                "kind": "span",
                "name": stat["name"],
                "tags": tag_text(stat),
                "count": stat["count"],
                "wall": stat["wall"],
                "cpu": stat["cpu"],
            }
        )
    for stat in sorted(
        (snapshot.get("counters") or {}).values(), key=lambda c: c["name"]
    ):
        writer.writerow(
            {
                "kind": "counter",
                "name": stat["name"],
                "tags": tag_text(stat),
                "count": stat["count"],
                "value": stat["value"],
            }
        )
    for stat in sorted(
        (snapshot.get("histograms") or {}).values(), key=lambda h: h["name"]
    ):
        writer.writerow(
            {
                "kind": "histogram",
                "name": stat["name"],
                "tags": tag_text(stat),
                "count": stat["count"],
                "value": stat["total"],
            }
        )
    for stat in sorted(
        (snapshot.get("events") or {}).values(),
        key=lambda e: (e.get("severity", ""), e.get("name", "")),
    ):
        writer.writerow(
            {
                "kind": "health",
                "name": stat["name"],
                "tags": tag_text(stat),
                "count": stat["count"],
                "severity": stat.get("severity", ""),
                "worst": stat.get("worst", ""),
                "threshold": stat.get("threshold", ""),
                "message": stat.get("message", ""),
                "path": stat.get("path") or "",
            }
        )
    return buffer.getvalue()


def to_chrome_trace(snapshot: Mapping[str, Any]) -> str:
    """Chrome Trace Event Format rendering of a snapshot.

    Loadable by ``chrome://tracing`` and Perfetto.  Snapshots hold
    aggregates, not raw events, so each span bucket becomes one complete
    (``ph: "X"``) slice whose duration is the bucket's total wall time,
    laid end to end per bucket name; counters become ``ph: "C"`` samples
    and health events ``ph: "i"`` instants at the emitting span's end.
    Timestamps are microseconds from an arbitrary zero.
    """
    trace_events: list[dict[str, Any]] = []
    cursor_us = 0.0
    for stat in sorted(_span_rows(snapshot), key=lambda s: -s["wall"]):
        duration_us = max(float(stat["wall"]) * 1e6, 1.0)
        trace_events.append(
            {
                "name": _span_label(stat),
                "cat": "span",
                "ph": "X",
                "ts": cursor_us,
                "dur": duration_us,
                "pid": 0,
                "tid": 0,
                "args": {
                    "count": stat["count"],
                    "cpu_seconds": stat["cpu"],
                    "wall_seconds": stat["wall"],
                    "tags": dict(stat.get("tags") or {}),
                },
            }
        )
        cursor_us += duration_us
    for stat in sorted(
        (snapshot.get("counters") or {}).values(), key=lambda c: c["name"]
    ):
        trace_events.append(
            {
                "name": _span_label(stat),
                "cat": "counter",
                "ph": "C",
                "ts": 0.0,
                "pid": 0,
                "args": {"value": stat["value"]},
            }
        )
    for stat in sorted(
        (snapshot.get("events") or {}).values(),
        key=lambda e: (e.get("severity", ""), e.get("name", "")),
    ):
        trace_events.append(
            {
                "name": _span_label(stat),
                "cat": f"health.{stat.get('severity', 'info')}",
                "ph": "i",
                "s": "g",
                "ts": max(cursor_us, 1.0),
                "pid": 0,
                "tid": 0,
                "args": {
                    "count": stat["count"],
                    "worst": stat.get("worst"),
                    "threshold": stat.get("threshold"),
                    "message": stat.get("message", ""),
                    "span_path": stat.get("path"),
                },
            }
        )
    return json.dumps(
        {"displayTimeUnit": "ms", "traceEvents": trace_events}, indent=2
    )


def summary_json(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """Machine-readable counterpart of :func:`format_summary`.

    One JSON-safe object with the same sections the human table prints —
    spans (wall-sorted), counters, histograms with quantiles, and health
    events — so CI and dashboards stop scraping the text output.
    """
    from repro.obs.health import severity_counts
    from repro.obs.registry import histogram_quantiles

    spans = sorted(_span_rows(snapshot), key=lambda s: -s["wall"])
    histograms = []
    for stat in sorted(
        (snapshot.get("histograms") or {}).values(), key=lambda h: h["name"]
    ):
        entry = dict(stat)
        entry["quantiles"] = histogram_quantiles(stat)
        entry["mean"] = (
            stat["total"] / stat["count"] if stat.get("count") else 0.0
        )
        histograms.append(entry)
    return {
        "kind": "obs_summary",
        "spans": [dict(s) for s in spans],
        "span_buckets": len(spans),
        "span_calls": sum(int(s.get("count", 0)) for s in spans),
        "wall_seconds": sum(float(s.get("wall", 0.0)) for s in spans),
        "counters": [
            dict(c)
            for c in sorted(
                (snapshot.get("counters") or {}).values(),
                key=lambda c: c["name"],
            )
        ],
        "histograms": histograms,
        "health": {
            "events": [
                dict(e) for e in (snapshot.get("events") or {}).values()
            ],
            "severity_counts": severity_counts(snapshot),
            "dropped": int(snapshot.get("events_dropped", 0) or 0),
        },
    }


def top_json(
    snapshot: Mapping[str, Any], n: int = 10, by: str = "wall"
) -> dict[str, Any]:
    """Machine-readable counterpart of :func:`format_top`."""
    if by not in ("wall", "cpu", "count"):
        raise ValidationError(f"top ordering must be wall/cpu/count, got {by!r}")
    ranked = sorted(_span_rows(snapshot), key=lambda s: -s[by])[: max(int(n), 1)]
    rows = []
    for rank, stat in enumerate(ranked, start=1):
        row = dict(stat)
        row["rank"] = rank
        row["label"] = _span_label(stat)
        row["mean"] = (
            stat["wall"] / stat["count"] if stat.get("count") else 0.0
        )
        rows.append(row)
    return {"kind": "obs_top", "by": by, "spans": rows}


def format_top(snapshot: Mapping[str, Any], n: int = 10, by: str = "wall") -> str:
    """The ``n`` hottest span buckets ordered by ``wall`` | ``cpu`` | ``count``."""
    if by not in ("wall", "cpu", "count"):
        raise ValidationError(f"top ordering must be wall/cpu/count, got {by!r}")
    spans = _span_rows(snapshot)
    if not spans:
        return "spans: none recorded"
    ranked = sorted(spans, key=lambda s: -s[by])[: max(int(n), 1)]
    lines = [f"top {len(ranked)} span bucket(s) by {by}:"]
    for rank, stat in enumerate(ranked, start=1):
        mean = stat["wall"] / stat["count"] if stat["count"] else 0.0
        lines.append(
            f"{rank:>3}. {_span_label(stat)}  "
            f"n={stat['count']} wall={_fmt_seconds(stat['wall'])} "
            f"cpu={_fmt_seconds(stat['cpu'])} mean={_fmt_seconds(mean)}"
        )
    return "\n".join(lines)
