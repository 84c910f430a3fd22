"""End-to-end distributed trace: serve -> spill -> lease workers -> collector.

The acceptance scenario for the tracing PR, run exactly the way a cluster
would: an :class:`AnalysisServer` receives a ``/v1/stability_map`` request
carrying a W3C ``traceparent``, spills it to a prepared (not autostarted)
campaign job, and two **separate** ``repro campaign worker`` processes
drain the lease plan.  The collector then merges the server's span log
with both workers' telemetry logs into one Chrome trace and the test
asserts the whole story hangs off the client's single ``trace_id``:

* the 202 response echoes the request id and propagates the trace id,
* both worker processes inherit the context from the frozen lease plan
  (no environment variable or flag hand-off),
* the merged document has a server lane plus two worker lanes, and
* the critical-path summary attributes time to ``evaluate`` and ``spill``.

``--basetemp dist-artifacts/trace`` in CI pins ``tmp_path`` where the
artifact upload and the ``repro obs trace`` merge step expect the files:
``<basetemp>/<test>0/jobs/<job>.jsonl`` and ``<basetemp>/<test>0/serve.trace.jsonl``.
"""

import asyncio
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.store import ResultStore
from repro.obs import trace as obs_trace
from repro.serve import AnalysisServer, ServerConfig

pytestmark = pytest.mark.campaign

SPACE = {"separation": [2.0, 4.0], "ratio": [0.05, 0.1, 0.15]}  # 6 cells
DEFAULTS = {"points": 200}
TRACE_ID = "ab" * 16
CLIENT_PARENT = f"00-{TRACE_ID}-000000000000cafe-01"
REQUEST_ID = "req-e2e-1"

SRC = str(Path(__file__).resolve().parents[2] / "src")


async def _request(port, method, path, body=None, headers=None):
    """Minimal HTTP/1.1 client with custom-header support."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b""
    if body is not None:
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
    lines = [f"{method} {path} HTTP/1.1", "Host: t"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    lines += [f"Content-Length: {len(payload)}", "Connection: close", "", ""]
    writer.write("\r\n".join(lines).encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    resp_headers = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        resp_headers[name.strip().lower()] = value.strip()
    return status, resp_headers, json.loads(rest) if rest else None


def _spill_request(tmp_path):
    """Run the server just long enough to accept + spill one traced request."""

    config = ServerConfig(
        port=0,
        spill_threshold=4,
        jobs_dir=str(tmp_path / "jobs"),
        job_autostart=False,  # the lease-worker fleet does the work
        job_lease_batch=2,
        trace_log=str(tmp_path / "serve.trace.jsonl"),
    )

    async def main():
        server = AnalysisServer(config)
        await server.start()
        try:
            return await _request(
                server.port,
                "POST",
                "/v1/stability_map",
                {"space": SPACE, "defaults": DEFAULTS},
                headers={"traceparent": CLIENT_PARENT, "X-Request-Id": REQUEST_ID},
            )
        finally:
            await server.stop()

    return asyncio.run(main())


def _spawn_worker(store):
    env = dict(os.environ)
    env["REPRO_OBS"] = "1"
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "campaign",
            "worker",
            str(store),
            "--max-idle",
            "5",
            "--poll-interval",
            "0.2",
            "--quiet",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def test_trace_spans_three_processes(tmp_path):
    status, headers, body = _spill_request(tmp_path)

    # -- satellite: request-id echo + trace propagation on the 202 itself
    assert status == 202, body
    assert headers["x-request-id"] == REQUEST_ID
    assert TRACE_ID in headers["traceparent"]
    store = tmp_path / "jobs" / f"{body['job_id']}.jsonl"
    assert store.exists(), "prepare-only spill must create the store"

    serve_log = tmp_path / "serve.trace.jsonl"
    serve_events = obs_trace.LogReader(logs=[serve_log]).refresh().spans()
    assert {e["trace_id"] for e in serve_events} == {TRACE_ID}
    assert any(e["name"] == "serve.job.spill" for e in serve_events)

    # -- two lease workers in separate processes drain the frozen plan
    procs = [_spawn_worker(store) for _ in range(2)]
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, out
    merged = ResultStore.open(store).merged_status()
    assert merged["complete"], merged

    # -- every worker span carries the client's trace id, via plan only
    worker_events = obs_trace.LogReader(store).refresh().spans()
    assert worker_events, "workers recorded no span events"
    assert {e["trace_id"] for e in worker_events} == {TRACE_ID}
    lanes = {e["worker"] for e in worker_events if e["name"] == "lease.worker"}
    assert len(lanes) == 2, f"expected two worker lanes, got {lanes}"
    assert any(e["name"].startswith("campaign.point") for e in worker_events)

    # -- the collector merges all three processes into one Chrome trace
    doc = obs_trace.build_chrome_trace(store, serve_logs=[serve_log])
    assert doc["traceIds"] == [TRACE_ID]
    slices = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    names = {ev["name"] for ev in slices}
    assert "serve.job.spill" in names and "lease.worker" in names
    worker_lanes = {
        (ev["pid"], ev["tid"]) for ev in slices if ev["name"] == "lease.worker"
    }
    assert len(worker_lanes) == 2
    # the workers' samples become heartbeat instants and progress counters
    assert any(
        ev["ph"] == "i" and ev["name"].startswith("heartbeat/")
        for ev in doc["traceEvents"]
    )
    assert any(
        ev["ph"] == "C" and ev["name"] == "campaign.progress"
        for ev in doc["traceEvents"]
    )
    buckets = doc["criticalPath"]["buckets"]
    assert set(buckets) >= {"queue", "evaluate", "spill", "lease_reclaim"}
    assert buckets["evaluate"]["seconds"] > 0.0
    assert buckets["spill"]["seconds"] > 0.0 and buckets["spill"]["events"] == 1


PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})?'
    r" (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]?Inf|NaN)$"
)


def test_metricsz_parses_under_prometheus_grammar():
    async def main():
        server = AnalysisServer(ServerConfig(port=0))
        await server.start()
        try:
            await _request(server.port, "POST", "/v1/margins", {"design": {}})
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                b"GET /v1/metricsz HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 0\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw
        finally:
            await server.stop()

    raw = asyncio.run(main())
    head, _, text = raw.partition(b"\r\n\r\n")
    assert b" 200 " in head.split(b"\r\n", 1)[0]
    assert b"text/plain; version=0.0.4" in head
    lines = text.decode().splitlines()
    assert any(line.startswith("repro_serve_requests") for line in lines)
    for line in lines:
        if not line or line.startswith("#"):
            continue
        assert PROM_LINE.match(line), f"not valid Prometheus text: {line!r}"
