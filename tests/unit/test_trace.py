"""Distributed-tracing unit tests: context, sink, collector, Prometheus.

Covers the tentpole's building blocks in isolation: W3C ``traceparent``
parsing (malformed headers must never crash a request), the process-global
telemetry sink and its torn-tolerant log reader, the Chrome-trace collector's
lane assignment and critical-path buckets, decade-histogram quantile
estimation, and the Prometheus text rendering consumed by
``GET /v1/metricsz``.
"""

import json
import math
import re
import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.prom import sanitize_metric_name, to_prometheus
from repro.obs.registry import HistogramStat, ObsRegistry, histogram_quantiles
from repro.obs.trace import (
    LogReader,
    TraceContext,
    build_chrome_trace,
    critical_path_summary,
    new_context,
    parse_traceparent,
)

VALID = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"


@pytest.fixture(autouse=True)
def _clean_sink():
    """Every test starts and ends with no sink and no campaign context."""
    obs_trace.close_sink()
    obs_trace.set_campaign(None)
    yield
    obs_trace.close_sink()
    obs_trace.set_campaign(None)


class TestTraceparent:
    def test_roundtrip(self):
        ctx = parse_traceparent(VALID)
        assert ctx is not None
        assert ctx.trace_id == "ab" * 16
        assert ctx.span_id == "cd" * 8
        assert ctx.traceparent() == VALID

    def test_case_and_whitespace_tolerant(self):
        assert parse_traceparent("  " + VALID.upper() + " ") is not None

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-cdcdcdcdcdcdcdcd-01",
            "00-" + "ab" * 16 + "-" + "cd" * 8,  # missing flags
            "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # forbidden version
            "00-" + "0" * 32 + "-" + "cd" * 8 + "-01",  # zero trace id
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # zero span id
            "00-" + "zz" * 16 + "-" + "cd" * 8 + "-01",  # non-hex
        ],
    )
    def test_malformed_rejected(self, header):
        assert parse_traceparent(header) is None

    def test_child_keeps_trace_links_parent(self):
        root = new_context()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_dict_roundtrip_and_malformed(self):
        ctx = new_context().child()
        assert TraceContext.from_dict(ctx.to_dict()) == ctx
        assert TraceContext.from_dict(None) is None
        assert TraceContext.from_dict({"trace_id": "xy"}) is None
        assert TraceContext.from_dict("not-a-mapping") is None

    def test_activate_and_fallbacks(self):
        ctx = new_context()
        assert obs_trace.current() is None
        with obs_trace.activate(ctx):
            assert obs_trace.current() is ctx
            assert obs_trace.context_or_campaign() is ctx
        assert obs_trace.current() is None
        obs_trace.set_campaign(ctx)
        assert obs_trace.context_or_campaign() is ctx


class TestSink:
    def test_record_event_is_noop_without_sink_or_context(self, tmp_path):
        obs_trace.record_event("x", new_context(), 0.0, 1.0)  # no sink
        path = obs_trace.configure_sink(tmp_path / "t.jsonl")
        obs_trace.record_event("x", None, 0.0, 1.0)  # no context
        assert not path.exists() or path.read_text() == ""

    def test_record_and_read_back(self, tmp_path):
        ctx = new_context()
        path = obs_trace.configure_sink(tmp_path / "trace" / "t.jsonl")
        obs_trace.record_event(
            "serve.request/margins",
            ctx,
            10.0,
            10.5,
            links=[{"trace_id": ctx.trace_id, "span_id": ctx.span_id}],
            status=200,
        )
        events = LogReader(logs=[path]).refresh().spans()
        assert len(events) == 1
        ev = events[0]
        assert ev["name"] == "serve.request/margins"
        assert ev["trace_id"] == ctx.trace_id
        assert ev["attrs"]["status"] == 200
        assert ev["links"][0]["span_id"] == ctx.span_id
        assert {"host", "worker", "pid"} <= set(ev)

    def test_directory_sink_shards_by_worker(self, tmp_path):
        path = obs_trace.configure_sink(tmp_path / "r.jsonl.trace", worker="w1")
        assert path == tmp_path / "r.jsonl.trace" / "w1.jsonl"
        obs_trace.record_event("a", new_context(), 0.0, 1.0)
        assert path.exists()

    def test_torn_tail_and_junk_lines_skipped(self, tmp_path):
        ctx = new_context()
        path = obs_trace.configure_sink(tmp_path / "t.jsonl")
        obs_trace.record_event("good", ctx, 0.0, 1.0)
        with open(path, "a") as fh:
            fh.write("not json\n")
            fh.write('{"kind": "other", "name": "wrong-kind"}\n')
            fh.write('{"kind": "trace_span", "name": "torn", "sta')  # torn tail
        events = LogReader(logs=[path]).refresh().spans()
        assert [ev["name"] for ev in events] == ["good"]

    def test_load_store_events_merges_shards_sorted(self, tmp_path):
        store = tmp_path / "r.jsonl"
        ctx = new_context()
        obs_trace.configure_sink(obs_trace.trace_dir(store), worker="w2")
        obs_trace.record_event("late", ctx, 5.0, 6.0)
        obs_trace.configure_sink(obs_trace.trace_dir(store), worker="w1")
        obs_trace.record_event("early", ctx, 1.0, 2.0)
        events = LogReader(store).refresh().spans()
        assert [ev["name"] for ev in events] == ["early", "late"]


class TestCollector:
    def _event(self, name, start, end, host="h1", worker="w1", trace="t" * 32):
        return {
            "kind": "trace_span",
            "event": "span",
            "name": name,
            "trace_id": trace,
            "span_id": "s" * 16,
            "host": host,
            "worker": worker,
            "pid": 1,
            "start": start,
            "end": end,
        }

    def test_lanes_one_process_per_host_one_thread_per_worker(self):
        doc = build_chrome_trace(
            events=[
                self._event("a", 0.0, 1.0, host="h1", worker="w1"),
                self._event("b", 1.0, 2.0, host="h1", worker="w2"),
                self._event("c", 2.0, 3.0, host="h2", worker="w3"),
            ]
        )
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        procs = {ev["args"]["name"] for ev in meta if ev["name"] == "process_name"}
        threads = {ev["args"]["name"] for ev in meta if ev["name"] == "thread_name"}
        assert procs == {"host:h1", "host:h2"}
        assert threads == {"w1", "w2", "w3"}
        slices = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert len(slices) == 3
        assert {ev["pid"] for ev in slices} == {1, 2}
        assert doc["otherData"]["hosts"] == ["h1", "h2"]

    def test_trace_id_filter_keeps_untagged_events(self):
        keep = self._event("keep", 0.0, 1.0, trace="a" * 32)
        drop = self._event("drop", 0.0, 1.0, trace="b" * 32)
        untagged = self._event("hb", 0.0, 0.0)
        del untagged["trace_id"]
        doc = build_chrome_trace(
            events=[keep, drop, untagged], trace_id="a" * 32
        )
        names = {
            ev["name"] for ev in doc["traceEvents"] if ev["ph"] in ("X", "i")
        }
        assert "keep" in names and "hb" in names and "drop" not in names
        assert doc["traceIds"] == ["a" * 32]

    def test_timestamps_relative_microseconds(self):
        doc = build_chrome_trace(
            events=[self._event("a", 100.0, 100.5), self._event("b", 101.0, 101.25)]
        )
        slices = {
            ev["name"]: ev for ev in doc["traceEvents"] if ev["ph"] == "X"
        }
        assert slices["a"]["ts"] == 0.0
        assert slices["a"]["dur"] == pytest.approx(0.5e6)
        assert slices["b"]["ts"] == pytest.approx(1e6)

    def test_critical_path_buckets(self):
        summary = critical_path_summary(
            [
                self._event("campaign.point", 0.0, 2.0),
                self._event("serve.batch.wait", 0.0, 1.0),
                self._event("lease.idle", 2.0, 3.0),
                self._event("serve.job.spill", 0.0, 0.5),
                self._event("lease.reclaim", 0.0, 0.25),
                self._event("unbucketed.thing", 0.0, 10.0),
            ]
        )
        buckets = summary["buckets"]
        assert buckets["evaluate"]["seconds"] == pytest.approx(2.0)
        assert buckets["queue"]["seconds"] == pytest.approx(2.0)
        assert buckets["queue"]["events"] == 2
        assert buckets["spill"]["seconds"] == pytest.approx(0.5)
        assert buckets["lease_reclaim"]["seconds"] == pytest.approx(0.25)
        assert summary["busy_seconds"] == pytest.approx(4.75)
        shares = sum(b["share"] for b in buckets.values())
        assert shares == pytest.approx(1.0, abs=1e-3)

    def test_batch_fanin_links_preserved(self):
        ev = self._event("serve.batch", 0.0, 1.0)
        ev["links"] = [{"trace_id": "x" * 32, "span_id": "y" * 16}]
        doc = build_chrome_trace(events=[ev])
        sl = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert sl["args"]["links"] == ev["links"]


class TestQuantiles:
    def _hist(self, values):
        hist = HistogramStat("h", {})
        for value in values:
            hist.observe(value)
        return hist

    def test_empty(self):
        assert histogram_quantiles(self._hist([])) == {}

    def test_single_value_exact(self):
        q = histogram_quantiles(self._hist([0.25]))
        assert q["p50"] == pytest.approx(0.25)
        assert q["p99"] == pytest.approx(0.25)

    def test_monotonic_and_bounded(self):
        values = [10 ** (i / 20 - 3) for i in range(120)]
        q = histogram_quantiles(self._hist(values))
        assert q["p50"] <= q["p95"] <= q["p99"]
        assert min(values) <= q["p50"] <= max(values)
        assert q["p99"] <= max(values)

    def test_dict_input_with_string_bucket_keys(self):
        entry = self._hist([0.001, 0.01, 0.1, 1.0, 10.0]).to_dict()
        assert all(isinstance(k, str) for k in entry["buckets"])
        q = histogram_quantiles(entry)
        assert 0.001 <= q["p50"] <= 10.0

    def test_decade_accuracy(self):
        # 1000 samples uniform in [1, 10): the geometric mid-bucket estimate
        # must land inside the decade, near the true median ~5.5.
        values = [1.0 + 9.0 * i / 1000 for i in range(1000)]
        q = histogram_quantiles(self._hist(values))
        assert 1.0 <= q["p50"] < 10.0


PROM_LINE = re.compile(
    r"^(?:# (?:HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*.*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})? [^ ]+)$"
)


class TestPrometheus:
    def _snapshot(self):
        registry = ObsRegistry()
        registry.record_span("serve.request/margins", {"status": "200"}, 0.5, 0.4, 1)
        registry.add("serve.batch.coalesced", 3.0, {})
        registry.observe("serve.latency.margins", 0.012, {})
        registry.observe("serve.latency.margins", 0.045, {})
        return registry.snapshot()

    def test_grammar(self):
        text = to_prometheus(self._snapshot())
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line:
                continue
            assert PROM_LINE.match(line), f"bad exposition line: {line!r}"

    def test_histogram_buckets_cumulative_with_inf(self):
        text = to_prometheus(self._snapshot())
        bucket_lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_serve_latency_margins_bucket")
        ]
        assert bucket_lines, text
        counts = [float(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)  # cumulative
        assert 'le="+Inf"' in bucket_lines[-1]
        assert counts[-1] == 2.0
        les = [
            re.search(r'le="([^"]+)"', line).group(1) for line in bucket_lines
        ]
        for le in les[:-1]:
            assert math.isfinite(float(le))  # float-parseable thresholds
        assert "repro_serve_latency_margins_sum" in text
        assert "repro_serve_latency_margins_count 2" in text

    def test_span_and_counter_samples(self):
        text = to_prometheus(self._snapshot())
        assert 'repro_span_seconds_total{' in text
        assert 'path="serve.request/margins"' in text
        assert "repro_serve_batch_coalesced_total 3" in text

    def test_sanitize(self):
        assert sanitize_metric_name("serve.latency/margins") == (
            "serve_latency_margins"
        )
        assert sanitize_metric_name("0bad")[0] == "_"


class TestRegistryTraceTag:
    def test_health_event_carries_trace_id(self):
        registry = ObsRegistry()
        registry.record_event(
            "pll.unstable",
            "warning",
            2.0,
            1.0,
            {},
            message="loop gain",
            trace_id="f" * 32,
        )
        snap = registry.snapshot()
        (entry,) = snap["events"].values()
        assert entry["trace_id"] == "f" * 32
        merged = ObsRegistry()
        merged.merge(snap)
        (entry2,) = merged.snapshot()["events"].values()
        assert entry2["trace_id"] == "f" * 32


class TestSinkThreadSafety:
    def test_concurrent_writers_produce_whole_lines(self, tmp_path):
        path = obs_trace.configure_sink(tmp_path / "t.jsonl")
        ctx = new_context()

        def write_many():
            for i in range(50):
                obs_trace.record_event("spin", ctx.child(), float(i), i + 0.5, n=i)

        threads = [threading.Thread(target=write_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        raw = path.read_text().splitlines()
        assert len(raw) == 200
        for line in raw:
            json.loads(line)  # every line is complete JSON
