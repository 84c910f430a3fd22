"""End-to-end continuous profiling: serve -> spill -> lease worker -> collector.

The acceptance scenario for the profiling PR, mirroring the trace e2e:
an :class:`AnalysisServer` running with ``--profile`` accepts a traced
``/v1/stability_map`` request and spills it to a prepared job; a separate
``repro campaign worker`` process drains the plan with
``REPRO_OBS=profile``.  The worker samples itself and appends its profile
deltas to its telemetry log, ``<store>.trace/<worker>.jsonl``; the server
appends its own to its ``--trace-log``.  The collector merges both and
the test asserts:

* the worker's deltas exist, parse, and recorded CPU samples,
* at least one sample attributes to a ``dense_grid``/``evaluate`` span
  path carrying the client's ``trace_id`` — the samples tell the same
  story as the trace, and
* ``repro obs profile`` merges the worker's and the server's deltas into
  collapsed text and a flamegraph HTML artifact.

``--basetemp dist-artifacts/profile`` in CI pins ``tmp_path`` where the
artifact upload and the ``repro obs profile`` merge step expect the
files: ``<basetemp>/<test>0/jobs/<job>.jsonl`` (and its ``.trace/``
sibling) plus ``<basetemp>/<test>0/serve.trace.jsonl``.
"""

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.store import ResultStore
from repro.cli import main
from repro.obs import profile as obs_profile
from repro.obs.trace import LogReader
from repro.serve import AnalysisServer, ServerConfig

pytestmark = pytest.mark.campaign

SPACE = {"separation": [2.0, 4.0], "ratio": [0.05, 0.1, 0.15]}  # 6 cells
# band_map spends its CPU inside core.dense_grid / core.evaluate spans;
# 2000 points/cell gives the 397 Hz sampler a comfortable number of ticks
# inside those spans.
TASK = "band_map"
DEFAULTS = {"points": 2000}
TRACE_ID = "cd" * 16
CLIENT_PARENT = f"00-{TRACE_ID}-000000000000beef-01"

SRC = str(Path(__file__).resolve().parents[2] / "src")


async def _request(port, method, path, body=None, headers=None):
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
    status = int(head.decode("latin-1").split("\r\n")[0].split(" ")[1])
    return status, json.loads(rest) if rest else None


def _spill_request(tmp_path):
    """Serve one traced request with the profiler on; flush its capture."""

    config = ServerConfig(
        port=0,
        spill_threshold=4,
        jobs_dir=str(tmp_path / "jobs"),
        job_autostart=False,  # the lease worker does the work
        job_lease_batch=6,
        profile=True,
        profile_hz=397,
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
                {"space": SPACE, "defaults": DEFAULTS, "task": TASK},
                headers={"traceparent": CLIENT_PARENT},
            )
        finally:
            await server.stop()  # stops the profiler, flushing the final delta

    return asyncio.run(main())


def _spawn_worker(store):
    env = dict(os.environ)
    env["REPRO_OBS"] = "profile"
    env["REPRO_OBS_PROFILE_HZ"] = "397"  # dense sampling keeps the test short
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "worker", str(store),
            "--max-idle", "5", "--poll-interval", "0.2", "--quiet",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def test_profile_attributes_samples_across_processes(tmp_path, capsys):
    status, body = _spill_request(tmp_path)
    assert status == 202, body
    store = tmp_path / "jobs" / f"{body['job_id']}.jsonl"
    assert store.exists(), "prepare-only spill must create the store"

    # The server's own profiler flushed its deltas into its log on stop.
    serve_log = tmp_path / "serve.trace.jsonl"
    serve_deltas = LogReader(logs=[serve_log]).refresh().profiles()
    assert serve_deltas and serve_deltas[0]["kind"] == "profile"

    # -- one lease worker drains the plan while sampling itself
    proc = _spawn_worker(store)
    out, _ = proc.communicate(timeout=300)
    assert proc.returncode == 0, out
    merged_status = ResultStore.open(store).merged_status()
    assert merged_status["complete"], merged_status

    deltas = LogReader(store).refresh().profiles()
    assert deltas, "worker must flush deltas to its <store>.trace/ log"
    merged = obs_profile.merge_profiles(deltas + serve_deltas)
    assert merged["samples"] > 0, "no samples despite 6 x 300-point cells"
    assert merged["workers"], "deltas must carry worker identities"

    # -- acceptance: samples attribute to the evaluation spans AND the
    #    client's trace id, with no flag hand-off beyond the lease plan.
    hot = [
        e for e in merged["stacks"]
        if "dense_grid" in e["span"] or "evaluate" in e["span"]
    ]
    assert hot, f"no samples in evaluation spans: {merged['stacks'][:5]}"
    assert any(TRACE_ID in e["trace_ids"] for e in hot), (
        "evaluation samples must carry the request's trace id"
    )

    # -- the collector merges worker and serve deltas into artifacts
    html = tmp_path / "flamegraph.html"
    out_txt = tmp_path / "profile.txt"
    code = main([
        "obs", "profile", str(store),
        "--serve-log", str(serve_log),
        "--out", str(out_txt), "--html", str(html), "--top", "3",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "sample(s) at 397 Hz" in printed
    collapsed = out_txt.read_text()
    assert collapsed.strip(), "collapsed output must not be empty"
    assert any("span:" in line for line in collapsed.splitlines())
    assert "flamegraph" in html.read_text()

    # -- json mode round-trips the merged document
    code = main(["obs", "profile", str(store), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "profile" and doc["samples"] > 0
