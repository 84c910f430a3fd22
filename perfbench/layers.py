"""Per-layer aggregation of traced spans, and the layer-share table."""

from __future__ import annotations

from dataclasses import dataclass, field

from perfbench import tracing

#: Table order of the layers (the span layer names of ``tracing.FUNCTIONS``).
LAYERS = (
    "serve.protocol.parse",
    "serve.protocol.encode",
    "serve.cache",
    "campaign.tasks",
    "pll.design",
    "pll.margins",
    "lti.bode",
    "pll.closedloop.lambda",
    "pll.closedloop.response",
    "core.aliasing",
    "baselines.zdomain",
    "campaign.store.append",
    "campaign.store.read",
    "campaign.lease",
)


@dataclass
class Totals:
    """Span totals of one traced phase, summed over its processes."""

    self_s: dict[str, float] = field(default_factory=dict)
    inclusive_s: dict[str, float] = field(default_factory=dict)  # outermost spans only
    calls: dict[str, int] = field(default_factory=dict)
    n: dict[str, int] = field(default_factory=dict)
    fn_calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    batches: list[tuple] = field(default_factory=list)  # (first, submitted, start, end)
    task_pids: set[int] = field(default_factory=set)

    def add(self, other: "Totals") -> None:
        for name in ("self_s", "inclusive_s", "calls", "n", "fn_calls", "counts"):
            mine, theirs = getattr(self, name), getattr(other, name)
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        self.batches.extend(other.batches)
        self.task_pids |= other.task_pids

    def self_of(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)


def totals(processes: list[dict], window: tuple[float, float] | None = None) -> Totals:
    """Aggregate span files; ``window`` keeps spans that start inside it."""
    out = Totals()
    for proc in processes:
        spans = [tuple(s) for s in proc["spans"]]
        if window is not None:
            lo, hi = window
            spans = [s for s in spans if lo <= s[4] <= hi]
        selfs = tracing.self_times(spans)
        layer_of = {s[0]: s[2] for s in spans}
        for span in spans:
            sid, parent, layer, name, t0, t1, _tid, _rid, n = span
            out.self_s[layer] = out.self_s.get(layer, 0.0) + selfs[sid]
            out.calls[layer] = out.calls.get(layer, 0) + 1
            out.n[layer] = out.n.get(layer, 0) + int(n or 0)
            out.fn_calls[name] = out.fn_calls.get(name, 0) + 1
            if layer_of.get(parent) != layer:
                out.inclusive_s[layer] = out.inclusive_s.get(layer, 0.0) + (t1 - t0)
            if layer == "campaign.tasks":
                out.task_pids.add(int(proc["pid"]))
        for key, value in proc.get("counts", {}).items():
            out.counts[key] = out.counts.get(key, 0) + int(value)
        for event in proc.get("events", []):
            if window is not None and not window[0] <= event[-2] <= window[1]:
                continue
            if event[0] == "batch":
                out.batches.append(tuple(event[1:]))
    return out


def per(value: float, base: float) -> float:
    return value / base if base else 0.0


def table(
    workload: str,
    op: str,
    op_time: float,
    rows: list[tuple[str, float, str]],
    waits: list[tuple[str, float]],
    overhead: tuple[str, float],
) -> str:
    """Markdown layer-share table.

    ``rows`` are ``(layer, self seconds per op, counts)``; ``waits``
    are ``(what, seconds per op)``; the remainder is ``op_time`` minus
    every row and wait, i.e. time no wrapped layer accounts for.
    """
    accounted = sum(r[1] for r in rows) + sum(w[1] for w in waits)
    remainder = op_time - accounted
    lines = [
        f"### {workload}",
        "",
        f"Per {op}: {op_time * 1e3:.3f} ms end to end in the traced run.",
        "",
        f"| layer | self ms / {op} | share | counts / {op} |",
        "|---|---:|---:|---|",
    ]
    for layer, seconds, counts in rows:
        lines.append(
            f"| {layer} | {seconds * 1e3:.4f} | {100 * per(seconds, op_time):.1f}% | {counts} |"
        )
    for what, seconds in waits:
        lines.append(
            f"| *wait: {what}* | {seconds * 1e3:.4f} | {100 * per(seconds, op_time):.1f}% | |"
        )
    lines.append(
        f"| *remainder (no layer)* | {remainder * 1e3:.4f} | "
        f"{100 * per(remainder, op_time):.1f}% | |"
    )
    name, value = overhead
    lines += ["", f"`bench.trace_overhead` on {name}: {100 * value:+.1f}%", ""]
    return "\n".join(lines)
