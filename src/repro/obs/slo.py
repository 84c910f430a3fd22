"""Declarative SLOs with multi-window burn-rate evaluation.

The observability layer so far answers *what happened* (registry),
*where* (trace), and *where the CPU went* (profile).  This module
answers the operator's question: **is the service meeting its
objectives, and how fast is it spending its error budget?**

The model is the Google SRE multi-window, multi-burn-rate alert: an SLO
has an *objective* (e.g. 99% of points succeed), hence an *error budget*
(1%).  The burn rate over a window is the observed bad fraction divided
by the budget — burn 1 spends the budget exactly at the sustainable
rate; burn 14.4 exhausts a 30-day budget in ~2 days.  A *policy* pairs a
short and a long window with a factor, and breaches only when **both**
exceed it — the short window makes the alert fast, the long one keeps a
momentary blip from paging anyone.

Three SLI kinds, all computed from data the layer already collects:

* ``error_ratio`` — cumulative bad/total counters summed from named
  fields of a campaign's run-wide samples (``failed`` vs ``done +
  failed``) or serve monitor samples (``failures`` vs ``requests``).
* ``latency`` — good events are observations at or under a threshold,
  estimated from the decade histograms by log-interpolation inside the
  containing decade (consistent with
  :func:`repro.obs.registry.histogram_quantiles`); histogram names match
  by prefix so ``serve.latency`` covers every endpoint.
* ``health_events`` — bad events are health events at or above a
  minimum severity, against a named total.

Windows **clamp to the available series span**: when the series is
shorter than the window the baseline is zero, so a short CI store still
evaluates (a 50%-failure smoke store burns at 50x a 1% budget — far
over any factor — while a healthy store burns 0).  Breaches emit
``obs.slo.burn`` health events (gated on ``obs.enabled()``) so the
existing ``repro obs health --fail-on`` machinery sees them too.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro._errors import ValidationError
from repro.obs import health as _health
from repro.obs import spans as _spans

__all__ = [
    "DEFAULT_WINDOWS",
    "BurnWindow",
    "SLIKinds",
    "SLISpec",
    "SLODefinition",
    "SLOMonitor",
    "default_campaign_slos",
    "default_serve_slos",
    "evaluate_slos",
    "evaluate_store",
    "format_slo_report",
    "histogram_good_count",
    "load_slo_spec",
    "parse_slo_spec",
]

SLIKinds = ("error_ratio", "latency", "health_events")


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate policy (breach = both windows over)."""

    name: str
    short_seconds: float
    long_seconds: float
    factor: float

    def __post_init__(self):
        if self.short_seconds <= 0 or self.long_seconds <= 0:
            raise ValidationError("burn windows must be positive")
        if self.short_seconds > self.long_seconds:
            raise ValidationError("short window must not exceed the long window")
        if self.factor <= 0:
            raise ValidationError("burn factor must be positive")


#: Google SRE workbook defaults: fast 5m/1h at 14.4x, slow 6h/3d at 6x.
DEFAULT_WINDOWS = (
    BurnWindow("fast", 300.0, 3600.0, 14.4),
    BurnWindow("slow", 21600.0, 259200.0, 6.0),
)


@dataclass(frozen=True)
class SLISpec:
    """What counts as a bad event for one SLO."""

    kind: str
    bad: tuple[str, ...] = ()
    total: tuple[str, ...] = ()
    histogram: str | None = None
    threshold_seconds: float | None = None
    min_severity: str = "error"

    def __post_init__(self):
        if self.kind not in SLIKinds:
            raise ValidationError(
                f"sli kind must be one of {SLIKinds}, got {self.kind!r}"
            )
        if self.kind == "error_ratio" and (not self.bad or not self.total):
            raise ValidationError("error_ratio sli needs 'bad' and 'total' fields")
        if self.kind == "latency":
            if not self.histogram or self.threshold_seconds is None:
                raise ValidationError(
                    "latency sli needs 'histogram' and 'threshold_seconds'"
                )
            if self.threshold_seconds <= 0:
                raise ValidationError("threshold_seconds must be positive")
        if self.kind == "health_events":
            if self.min_severity not in _health.SEVERITIES:
                raise ValidationError(
                    f"min_severity must be one of {_health.SEVERITIES}"
                )
            if not self.total:
                raise ValidationError("health_events sli needs a 'total' field")


@dataclass(frozen=True)
class SLODefinition:
    """One named objective over one SLI."""

    name: str
    objective: float
    sli: SLISpec
    windows: tuple[BurnWindow, ...] = field(default=DEFAULT_WINDOWS)

    def __post_init__(self):
        if not self.name:
            raise ValidationError("slo name must be non-empty")
        if not 0.0 < self.objective <= 1.0:
            raise ValidationError("slo objective must be in (0, 1]")
        if not self.windows:
            raise ValidationError("slo needs at least one burn window")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def parse_slo_spec(data: Any) -> list[SLODefinition]:
    """Build definitions from the JSON spec form ``{"slos": [...]}``."""
    if isinstance(data, Mapping):
        raw_slos = data.get("slos")
    else:
        raw_slos = data
    if not isinstance(raw_slos, Sequence) or isinstance(raw_slos, (str, bytes)):
        raise ValidationError("slo spec must be {'slos': [...]} or a list")
    out: list[SLODefinition] = []
    for raw in raw_slos:
        if not isinstance(raw, Mapping):
            raise ValidationError("each slo must be a mapping")
        raw_sli = raw.get("sli")
        if not isinstance(raw_sli, Mapping):
            raise ValidationError(f"slo {raw.get('name')!r} needs an 'sli' mapping")
        sli = SLISpec(
            kind=str(raw_sli.get("kind", "")),
            bad=tuple(raw_sli.get("bad") or ()),
            total=tuple(raw_sli.get("total") or ()),
            histogram=raw_sli.get("histogram"),
            threshold_seconds=(
                float(raw_sli["threshold_seconds"])
                if raw_sli.get("threshold_seconds") is not None
                else None
            ),
            min_severity=str(raw_sli.get("min_severity", "error")),
        )
        windows = DEFAULT_WINDOWS
        if raw.get("windows"):
            windows = tuple(
                BurnWindow(
                    name=str(w.get("name", f"w{i}")),
                    short_seconds=float(w["short_seconds"]),
                    long_seconds=float(w["long_seconds"]),
                    factor=float(w["factor"]),
                )
                for i, w in enumerate(raw["windows"])
            )
        out.append(
            SLODefinition(
                name=str(raw.get("name", "")),
                objective=float(raw.get("objective", 0.0)),
                sli=sli,
                windows=windows,
            )
        )
    if not out:
        raise ValidationError("slo spec defines no slos")
    return out


def load_slo_spec(path: str | Path) -> list[SLODefinition]:
    """Parse a JSON SLO spec file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read slo spec {path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"slo spec {path} is not valid JSON: {exc}") from exc
    return parse_slo_spec(data)


def default_campaign_slos() -> list[SLODefinition]:
    """Built-in objectives for campaign stores (used when no spec is given)."""
    return [
        SLODefinition(
            name="campaign-success",
            objective=0.99,
            sli=SLISpec(
                kind="error_ratio", bad=("failed",), total=("done", "failed")
            ),
        ),
        SLODefinition(
            name="campaign-health",
            objective=0.999,
            sli=SLISpec(
                kind="health_events",
                min_severity="error",
                total=("done", "failed"),
            ),
        ),
    ]


def default_serve_slos() -> list[SLODefinition]:
    """Built-in objectives for the analysis server's monitor."""
    return [
        SLODefinition(
            name="serve-availability",
            objective=0.999,
            sli=SLISpec(
                kind="error_ratio", bad=("failures",), total=("requests",)
            ),
        ),
        SLODefinition(
            name="serve-latency-p95",
            objective=0.95,
            sli=SLISpec(
                kind="latency", histogram="serve.latency", threshold_seconds=1.0
            ),
        ),
    ]


# ---------------------------------------------------------------------------
# SLI extraction: raw sample / snapshot -> cumulative (bad, total)
# ---------------------------------------------------------------------------


def histogram_good_count(entry: Mapping[str, Any], threshold: float) -> float:
    """Observations at or under ``threshold``, from decade buckets.

    Counts whole decades below the threshold exactly; the containing
    decade is split by log-interpolation (samples are uniform in log
    space within a decade — the same assumption ``histogram_quantiles``
    makes, so a latency SLO and the reported p95 never disagree on which
    side of the threshold the quantile sits).
    """
    count = int(entry.get("count", 0))
    if count <= 0 or threshold <= 0:
        return 0.0
    good = 0.0
    for raw_decade, n in (entry.get("buckets") or {}).items():
        try:
            decade, n = int(raw_decade), int(n)
        except (TypeError, ValueError):
            continue
        if n <= 0:
            continue
        if 10.0 ** (decade + 1) <= threshold:
            good += n
        elif 10.0 ** decade >= threshold:
            continue
        else:
            good += n * min(1.0, max(0.0, math.log10(threshold) - decade))
    return min(float(count), good)


def _sum_fields(sample: Mapping[str, Any], names: Iterable[str]) -> float:
    total = 0.0
    for name in names:
        try:
            total += float(sample.get(name, 0) or 0)
        except (TypeError, ValueError):
            continue
    return total


def _health_bad_count(sample: Mapping[str, Any], min_severity: str) -> float:
    """Events at/above ``min_severity`` from a sample's ``health`` counts."""
    counts = sample.get("health") or {}
    floor = _health.severity_rank(min_severity)
    bad = 0.0
    for severity, n in counts.items():
        if _health.severity_rank(str(severity)) >= floor:
            try:
                bad += float(n)
            except (TypeError, ValueError):
                continue
    return bad


def _sample_point(sli: SLISpec, sample: Mapping[str, Any]) -> tuple[float, float]:
    """Cumulative ``(bad, total)`` of one run-wide or monitor sample."""
    if sli.kind == "error_ratio":
        return _sum_fields(sample, sli.bad), _sum_fields(sample, sli.total)
    if sli.kind == "health_events":
        bad = _health_bad_count(sample, sli.min_severity)
        total = max(_sum_fields(sample, sli.total), bad)
        return bad, total
    raise ValidationError(f"sli kind {sli.kind!r} is not sample-based")


def _snapshot_point(
    sli: SLISpec, snapshot: Mapping[str, Any]
) -> tuple[float, float]:
    """Cumulative ``(bad, total)`` of one registry snapshot (latency SLIs)."""
    total = bad = 0.0
    for key, entry in (snapshot.get("histograms") or {}).items():
        name = key.partition("[")[0]
        if not name.startswith(sli.histogram or ""):
            continue
        count = float(entry.get("count", 0))
        total += count
        bad += count - histogram_good_count(entry, float(sli.threshold_seconds))
    return bad, total


def _series(
    definition: SLODefinition,
    samples: Sequence[tuple[float, Mapping[str, Any]]],
    snapshots: Sequence[tuple[float, Mapping[str, Any]]],
) -> list[tuple[float, float, float]]:
    """Time-ordered cumulative ``(t, bad, total)`` series for one SLO."""
    source: list[tuple[float, float, float]] = []
    if definition.sli.kind == "latency":
        for t, snapshot in snapshots:
            bad, total = _snapshot_point(definition.sli, snapshot)
            source.append((float(t), bad, total))
    else:
        for t, sample in samples:
            bad, total = _sample_point(definition.sli, sample)
            source.append((float(t), bad, total))
    source.sort(key=lambda p: p[0])
    return source


# ---------------------------------------------------------------------------
# Burn-rate evaluation
# ---------------------------------------------------------------------------


def _window_burn(
    series: Sequence[tuple[float, float, float]],
    window_seconds: float,
    budget: float,
    now: float,
) -> dict[str, float]:
    """Burn rate over one trailing window of a cumulative series.

    The baseline is the last sample at or before the window start; when
    the series is younger than the window the baseline is zero (the
    clamping rule — a short store evaluates against everything it has).
    """
    if not series:
        return {"bad": 0.0, "total": 0.0, "bad_fraction": 0.0, "burn": 0.0}
    end = series[-1]
    start_t = now - window_seconds
    base_bad = base_total = 0.0
    for t, bad, total in series:
        if t <= start_t:
            base_bad, base_total = bad, total
        else:
            break
    bad_delta = max(0.0, end[1] - base_bad)
    total_delta = max(0.0, end[2] - base_total)
    fraction = bad_delta / total_delta if total_delta > 0 else 0.0
    if budget > 0:
        burn = fraction / budget
    else:
        burn = math.inf if bad_delta > 0 else 0.0
    return {
        "bad": bad_delta,
        "total": total_delta,
        "bad_fraction": fraction,
        "burn": burn,
    }


def evaluate_slos(
    definitions: Sequence[SLODefinition],
    *,
    samples: Sequence[tuple[float, Mapping[str, Any]]] = (),
    snapshots: Sequence[tuple[float, Mapping[str, Any]]] = (),
    now: float | None = None,
    emit_events: bool = True,
) -> dict[str, Any]:
    """Evaluate every SLO; returns ``{"slos": [...], "breach": bool}``.

    ``samples`` are ``(unix_time, sample_dict)`` pairs (campaign run-wide samples or
    serve monitor samples); ``snapshots`` are ``(unix_time, registry
    snapshot)`` pairs for latency SLIs.  Breaches emit ``obs.slo.burn``
    health events when observability is enabled (and ``emit_events``).
    """
    results: list[dict[str, Any]] = []
    any_breach = False
    for definition in definitions:
        series = _series(definition, samples, snapshots)
        eval_now = now if now is not None else (
            series[-1][0] if series else time.time()
        )
        windows = []
        breach = False
        for policy in definition.windows:
            short = _window_burn(
                series, policy.short_seconds, definition.budget, eval_now
            )
            long = _window_burn(
                series, policy.long_seconds, definition.budget, eval_now
            )
            over = (
                short["burn"] > policy.factor and long["burn"] > policy.factor
            )
            breach = breach or over
            windows.append(
                {
                    "name": policy.name,
                    "short_seconds": policy.short_seconds,
                    "long_seconds": policy.long_seconds,
                    "factor": policy.factor,
                    "short": short,
                    "long": long,
                    "breach": over,
                }
            )
        end = series[-1] if series else (eval_now, 0.0, 0.0)
        result = {
            "name": definition.name,
            "kind": definition.sli.kind,
            "objective": definition.objective,
            "budget": definition.budget,
            "bad": end[1],
            "total": end[2],
            "samples": len(series),
            "windows": windows,
            "breach": breach,
        }
        results.append(result)
        any_breach = any_breach or breach
        if breach and emit_events and _spans.enabled():
            worst = max(
                (w for w in windows if w["breach"]),
                key=lambda w: w["short"]["burn"],
            )
            burn = worst["short"]["burn"]
            _spans.health_event(
                "obs.slo.burn",
                burn if math.isfinite(burn) else 1e9,
                worst["factor"],
                severity="error",
                message=(
                    f"SLO {definition.name} burning at "
                    f"{burn:.1f}x budget ({worst['name']} window, "
                    f"factor {worst['factor']:g})"
                ),
                slo=definition.name,
            )
    return {"slos": results, "breach": any_breach}


def evaluate_store(
    store_path: str | Path,
    definitions: Sequence[SLODefinition] | None = None,
    *,
    now: float | None = None,
    log: Any = None,
) -> dict[str, Any]:
    """Evaluate SLOs over a campaign store's run-wide sample series.

    The series sums every worker's latest cumulative sample at each time
    (:func:`repro.obs.trace.run_series`); ``log`` is a refreshed
    :class:`~repro.obs.trace.LogReader` to reuse (``campaign watch`` keeps
    one).  Falls back to one synthetic sample built from the merged store
    status when the store has no samples — enough for the clamped
    single-window evaluation a CI gate needs.
    """
    from repro.obs.trace import LogReader

    store_path = Path(store_path)
    definitions = list(definitions) if definitions else default_campaign_slos()
    if log is None:
        log = LogReader(store_path).refresh()
    samples: list[tuple[float, Mapping[str, Any]]] = [
        (point["time"], point) for point in log.series()
    ]
    if not samples:
        from repro.campaign.store import ResultStore

        status = ResultStore.open(store_path).merged_status()
        samples = [
            (
                now if now is not None else time.time(),
                {
                    "done": status.get("done", 0),
                    "failed": status.get("failed", 0),
                },
            )
        ]
    result = evaluate_slos(definitions, samples=samples, now=now)
    result["store"] = str(store_path)
    return result


def format_slo_report(result: Mapping[str, Any]) -> str:
    """Human-readable burn-rate report for one evaluation result."""

    def fmt_burn(value: float) -> str:
        if math.isinf(value):
            return "inf"
        return f"{value:.2f}"

    lines = []
    if result.get("store"):
        lines.append(f"SLO report for {result['store']}")
    for slo in result.get("slos") or []:
        state = "BREACH" if slo.get("breach") else "ok"
        lines.append(
            f"{slo['name']}: objective {slo['objective'] * 100:g}% "
            f"(budget {slo['budget'] * 100:g}%), "
            f"bad {slo['bad']:g} of {slo['total']:g} — {state}"
        )
        for window in slo.get("windows") or []:
            mark = "BREACH" if window.get("breach") else "ok"
            lines.append(
                f"  {window['name']} "
                f"({window['short_seconds']:g}s/{window['long_seconds']:g}s "
                f"x{window['factor']:g}): "
                f"burn {fmt_burn(window['short']['burn'])} / "
                f"{fmt_burn(window['long']['burn'])} — {mark}"
            )
    if not lines:
        lines.append("no slos evaluated")
    lines.append(
        "overall: BREACH" if result.get("breach") else "overall: ok"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Serve-side monitor: a bounded ring of periodic samples
# ---------------------------------------------------------------------------


class SLOMonitor:
    """Rolling SLO evaluation for a long-lived process (the serve loop).

    Call :meth:`sample` periodically with a cumulative counters dict (and
    optionally a registry snapshot for latency SLIs); :meth:`evaluate`
    runs the burn-rate math over the retained ring.  Ring sizes bound
    memory: at a 10 s interval, 4096 samples cover ~11 h — beyond the
    fast windows and into the slow ones, which clamp gracefully.
    """

    def __init__(
        self,
        definitions: Sequence[SLODefinition] | None = None,
        *,
        max_samples: int = 4096,
        max_snapshots: int = 512,
    ):
        from collections import deque

        self.definitions = (
            list(definitions) if definitions else default_serve_slos()
        )
        self._samples: Any = deque(maxlen=max_samples)
        self._snapshots: Any = deque(maxlen=max_snapshots)
        self._lock = None  # samples appended from one task; reads copy

    def sample(
        self,
        sample: Mapping[str, Any],
        snapshot: Mapping[str, Any] | None = None,
        now: float | None = None,
    ) -> None:
        t = now if now is not None else time.time()
        self._samples.append((t, dict(sample)))
        if snapshot is not None:
            self._snapshots.append((t, snapshot))

    def evaluate(self, now: float | None = None) -> dict[str, Any]:
        return evaluate_slos(
            self.definitions,
            samples=list(self._samples),
            snapshots=list(self._snapshots),
            now=now,
        )
