"""The one telemetry log per worker process, its writer and its reader.

A store's telemetry — samples, span events, profile deltas — lives in one
JSONL log per worker process under ``<store>.trace/``, written only through
the trace sink and read back by one tail-following
:class:`~repro.obs.trace.LogReader`.  These tests pin:

* the on-disk layout of a profiled two-worker run (nothing else beside
  the store, one log per process, each holding only its own records);
* one telemetry thread per worker;
* the reader's cost: a kept reader decodes only what was appended;
* ``campaign watch`` on a live two-worker run, and after a SIGKILL;
* job polling on a server that logs its own spans elsewhere.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, ListSpace, run_campaign
from repro.campaign.store import shard_dir
from repro.campaign.watch import poll_store
from repro.cli import main
from repro.obs import merge_profiles
from repro.obs.trace import LogReader, log_path, trace_dir, write_record

pytestmark = pytest.mark.campaign

ROOT = Path(__file__).resolve().parents[2]


def busy_task(params):
    """A CPU-bound point (the profiler samples CPU time)."""
    deadline = time.perf_counter() + params.get("seconds", 0.02)
    x = 0
    while time.perf_counter() < deadline:
        x += 1
    return {"y": params["x"]}


def _spawn(script, store, env_extra):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT)])),
        **env_extra,
    )
    return subprocess.Popen(
        [sys.executable, "-c", script, str(store)],
        env=env,
        cwd=ROOT,
        start_new_session=True,  # killpg takes the forked worker down too
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


_TWO_WORKERS = """
import sys
from repro.campaign import CampaignSpec, ListSpace, run_campaign
from tests.unit.test_telemetry_log import busy_task

spec = CampaignSpec.create(
    name="one-log",
    space=ListSpace.of([{"x": float(i), "seconds": SECONDS} for i in range(POINTS)]),
    task=busy_task,
)
run_campaign(spec, sys.argv[1], workers=2, heartbeat_interval=INTERVAL)
"""


def test_one_log_per_worker_process(tmp_path):
    store = tmp_path / "r.jsonl"
    script = (
        _TWO_WORKERS.replace("SECONDS", "0.02").replace("POINTS", "24")
        .replace("INTERVAL", "0.1")
    )
    proc = _spawn(script, store, {"REPRO_OBS": "profile"})
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode(errors="replace")

    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "r.jsonl",
        "r.jsonl.leases",
        "r.jsonl.manifest.json",
        "r.jsonl.shards",
        "r.jsonl.trace",
    ]
    logs = sorted(trace_dir(store).iterdir())
    assert len(logs) == 2 and all(log.suffix == ".jsonl" for log in logs)
    for log in logs:
        pid = int(log.stem.rsplit("-", 1)[1])
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert {r["pid"] for r in records} == {pid}, log.name
        assert {"sample", "trace_span", "profile"} <= {r["kind"] for r in records}
    # The shards hold result records only: readers take each for a store.
    for shard in shard_dir(store).iterdir():
        assert json.loads(shard.read_text().splitlines()[0])["kind"] == "campaign"


def test_one_telemetry_thread_per_worker(tmp_path):
    before = set(threading.enumerate())  # another test's job may still run
    seen = []

    def task(params):
        seen.append(sorted(t.name for t in set(threading.enumerate()) - before))
        return {"y": params["x"]}

    spec = CampaignSpec.create(
        name="threads", space=ListSpace.of([{"x": 1.0}]), task=task
    )
    run_campaign(spec, tmp_path / "r.jsonl", heartbeat_interval=0.05)
    (names,) = seen
    assert names.count("repro-sampler") == 1
    assert not {"repro-heartbeat", "repro-stream"} & set(names)


def test_kept_reader_decodes_only_new_lines(tmp_path):
    store = tmp_path / "r.jsonl"
    logs = [log_path(store, "w1"), log_path(store, "w2")]
    for i in range(5):
        for log in logs:
            sample = {"kind": "sample", "worker": log.stem, "time": float(i), "done": i}
            assert write_record(sample, log)
    reader = LogReader(store).refresh()
    assert reader.decoded == 10
    assert reader.refresh().decoded == 10  # nothing new, nothing decoded

    write_record({"kind": "sample", "worker": "w1", "time": 5.0, "done": 5}, logs[0])
    with logs[1].open("a") as handle:
        handle.write('{"kind": "sample", "worker": "w2", "time": 5.0, ')  # torn
    assert reader.refresh().decoded == 11
    with logs[1].open("a") as handle:
        handle.write('"done": 5}\n')
    assert reader.refresh().decoded == 12
    assert [p["done"] for p in reader.series()][-1] == 10

    # A replaced log is read again from its first byte.
    replacement = tmp_path / "new.jsonl"
    write_record({"kind": "sample", "worker": "w1", "time": 9.0, "done": 1}, replacement)
    os.replace(replacement, logs[0])
    assert reader.refresh().decoded == 13
    assert len(reader.samples()) == 7


_LIVE_SCRIPT = (
    _TWO_WORKERS.replace("SECONDS", "0.1").replace("POINTS", "60")
    .replace("INTERVAL", "0.2")
    .replace("heartbeat_interval=0.2)", "heartbeat_interval=0.2, profile=True)")
)


def test_watch_once_on_a_live_two_worker_run(tmp_path, capsys):
    store = tmp_path / "r.jsonl"
    proc = _spawn(_LIVE_SCRIPT, store, {})
    try:
        deadline = time.time() + 60.0
        while time.time() < deadline:
            log = LogReader(store).refresh()
            progressed = {
                s["worker"] for s in log.samples() if s.get("done", 0) >= 2
            }
            if len(progressed) == 2 and merge_profiles(log.profiles())["samples"]:
                break
            assert proc.poll() is None, proc.stderr.read().decode(errors="replace")
            time.sleep(0.05)
        else:
            pytest.fail("two workers never logged progress")
        assert main(["campaign", "watch", str(store), "--once"]) == 0
        frame = capsys.readouterr().out
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
        proc.stderr.close()
    assert "workers (2 live):" in frame, frame
    assert "eta: ~" in frame, frame
    assert "stream: " in frame and "from 2 worker(s)" in frame, frame
    assert "profile: " in frame, frame
    assert "slo: " in frame, frame

    time.sleep(3 * 0.2 + 0.3)  # well past three missed samples
    assert main(["campaign", "watch", str(store), "--once"]) == 0
    corpse = capsys.readouterr().out
    assert corpse.count("STALLED?") == 2, corpse


def test_spilled_job_polls_progress_while_the_server_logs_elsewhere(tmp_path):
    from repro.serve import AnalysisServer, ServerConfig

    from tests.unit.test_serve_app import _request

    serve_log = tmp_path / "serve.trace.jsonl"
    config = ServerConfig(
        port=0,
        spill_threshold=4,
        jobs_dir=str(tmp_path / "jobs"),
        trace_log=str(serve_log),
    )
    body = {
        "space": {"separation": [2.0, 4.0], "ratio": [0.05, 0.1, 0.15]},
        "defaults": {"points": 200},
    }

    async def scenario():
        server = AnalysisServer(config)
        await server.start()
        try:
            status, _, spilled = await _request(
                server.port, "POST", "/v1/stability_map", body
            )
            assert status == 202, spilled
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 60.0
            while True:
                _, _, job = await _request(
                    server.port, "GET", f"/v1/jobs/{spilled['job_id']}"
                )
                if job.get("complete") and not job.get("running"):
                    return spilled["job_id"], job
                assert loop.time() < deadline, job
                await asyncio.sleep(0.1)
        finally:
            await server.stop()

    job_id, job = asyncio.run(scenario())
    assert job["stream"]["done"] == 6 and job["stream"]["failed"] == 0
    store = tmp_path / "jobs" / f"{job_id}.jsonl"
    assert poll_store(store)["stream"]["done"] == 6
    # The run's samples went to its store's log, not to the server's.
    assert LogReader(logs=[serve_log]).refresh().samples() == []
    assert LogReader(store).refresh().samples()
