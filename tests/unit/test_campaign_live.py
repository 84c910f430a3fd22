"""Live-telemetry acceptance tests for the campaign executor.

The ISSUE 5 acceptance criteria live here:

* **stall detection** — a task sleeping past the heartbeat stall
  threshold produces a ``campaign.worker_stalled`` health event and a
  straggler flag in telemetry, serially and with two lease workers; a
  clean run produces neither;
* **kill-resume demo** — a two-worker run logging samples is SIGKILLed
  mid-run; ``repro campaign watch --once`` renders sane state from the
  torn files, ``resume_campaign`` verifies the manifest, reclaims the dead
  workers' leases at once (well inside the lease ttl), and the resumed
  run completes with a continuous sample timeline;
* **progress-callback isolation** — the callback sees every record with
  live telemetry, and a raising callback is counted, never fatal;
* **timeout degradation** — when SIGALRM cannot be armed the record is
  flagged and a ``campaign.timeout_unavailable`` counter + warning event
  are emitted (satellite task).
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    ExecutionPolicy,
    ListSpace,
    resume_campaign,
    run_campaign,
)
from repro.campaign.executor import _run_point
from repro.campaign.store import ResultStore, shard_dir
from repro.obs import manifest as obs_manifest
from repro.obs import spans as obs
from repro.obs.heartbeat import heartbeat_dir
from repro.obs.report import load_snapshot
from repro.obs.trace import LogReader

pytestmark = pytest.mark.campaign

SLEEP_MARK = 3.0
STALL_SLEEP = 0.5


@pytest.fixture(autouse=True)
def _obs_enabled():
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    (obs.enable if was_enabled else obs.disable)()
    obs.reset()


def quick_task(params):
    return {"y": params["x"] * 2.0}


def sleepy_task(params):
    if params["x"] == SLEEP_MARK:
        time.sleep(STALL_SLEEP)
    return {"y": params["x"]}


def slow_task(params):
    time.sleep(0.25)
    return {"y": params["x"] * 2.0}


def _xspace(n):
    return ListSpace.of([{"x": float(i)} for i in range(n)])


def _spec(task, n=8, name="live"):
    return CampaignSpec.create(name=name, space=_xspace(n), task=task)


def _stall_policy(**overrides):
    base = dict(
        heartbeat_interval=0.1,
        stall_factor=3.0,
        straggler_factor=4.0,
        checkpoint_every=1,
    )
    base.update(overrides)
    return ExecutionPolicy(**base)


def _event_names(telemetry):
    snapshot = telemetry.obs_snapshot() or {}
    return set(snapshot.get("events", {}))


class TestStallDetection:
    def test_sleeping_point_flags_stall_and_straggler_serial(self, tmp_path):
        result = run_campaign(
            _spec(sleepy_task), tmp_path / "r.jsonl", policy=_stall_policy()
        )
        t = result.telemetry
        assert t.done == 8
        assert t.stalls >= 1
        assert t.stragglers >= 1
        assert len(t.straggler_ids) == t.stragglers
        events = _event_names(t)
        assert "campaign.worker_stalled#warning" in events
        assert "campaign.point_straggler#info" in events
        assert any("stall" in note for note in t.notes)

    def test_sleeping_point_flags_stall_pool(self, tmp_path):
        result = run_campaign(
            _spec(sleepy_task),
            tmp_path / "r.jsonl",
            policy=_stall_policy(workers=2),
        )
        t = result.telemetry
        assert t.done == 8
        assert t.stalls >= 1
        assert "campaign.worker_stalled#warning" in _event_names(t)

    def test_two_worker_store_keeps_the_run_telemetry(self, tmp_path):
        # The caller writes the telemetry it folded from both workers as the
        # run's one summary, so `repro obs health` and `campaign status`
        # see the stall events only the caller computes.
        store = tmp_path / "r.jsonl"
        run_campaign(_spec(sleepy_task), store, policy=_stall_policy(workers=2))
        assert "campaign.worker_stalled#warning" in load_snapshot(store)["events"]
        summaries = [
            r for r in ResultStore.open(store).records() if r["kind"] == "summary"
        ]
        assert len(summaries) == 1
        summary = summaries[0]
        assert (summary["mode"], summary["workers"], summary["done"]) == ("lease", 2, 8)
        assert summary["live"]["stalls"] >= 1
        assert summary["merged"]["done"] == 8

    def test_clean_run_flags_nothing(self, tmp_path):
        result = run_campaign(
            _spec(quick_task),
            tmp_path / "r.jsonl",
            policy=_stall_policy(workers=2),
        )
        t = result.telemetry
        assert t.done == 8
        assert t.stalls == 0
        assert t.stragglers == 0
        events = _event_names(t)
        assert "campaign.worker_stalled#warning" not in events
        assert "campaign.point_straggler#info" not in events

    def test_summary_reports_health_counts(self, tmp_path):
        result = run_campaign(
            _spec(sleepy_task), tmp_path / "r.jsonl", policy=_stall_policy()
        )
        counts = result.telemetry.health_counts()
        assert counts.get("warning", 0) >= 1
        assert "live:" in result.telemetry.summary()

    def test_heartbeat_dir_cleaned_after_completion(self, tmp_path):
        store = tmp_path / "r.jsonl"
        run_campaign(_spec(quick_task), store, policy=_stall_policy())
        assert not heartbeat_dir(store).exists()
        # The log keeps the samples; the last one says the worker stopped.
        samples = LogReader(store).refresh().samples()
        assert samples[-1]["phase"] == "stopped"
        assert samples[-1]["done"] == 8

    def test_no_heartbeats_when_interval_none(self, tmp_path):
        store = tmp_path / "r.jsonl"
        result = run_campaign(
            _spec(sleepy_task), store, heartbeat_interval=None
        )
        assert result.telemetry.stalls == 0
        assert not heartbeat_dir(store).exists()
        assert LogReader(store).refresh().samples() == []


class TestProgressCallback:
    def test_callback_sees_every_record_with_live_telemetry(self, tmp_path):
        seen = []

        def progress(record, telemetry):
            seen.append((record["id"], telemetry.processed))

        result = run_campaign(
            _spec(quick_task), tmp_path / "r.jsonl", progress=progress
        )
        assert len(seen) == 8
        # telemetry is live: processed counts the record just folded in
        assert [count for _, count in seen] == list(range(1, 9))
        assert {pid for pid, _ in seen} == {r["id"] for r in result.records}

    def test_raising_callback_is_counted_not_fatal(self, tmp_path):
        def explode(record, telemetry):
            raise RuntimeError("reporter bug")

        result = run_campaign(
            _spec(quick_task), tmp_path / "r.jsonl", progress=explode
        )
        t = result.telemetry
        assert t.done == 8  # the run survived every callback failure
        assert t.progress_errors == 8
        assert sum("progress callback raised" in n for n in t.notes) == 1
        assert "campaign.progress_errors" in (
            (t.obs_snapshot() or {}).get("counters", {})
        )


class TestTimeoutDegradation:
    def test_unarmable_timeout_is_flagged_and_counted(self):
        # SIGALRM only arms in the main thread; running the point in a
        # worker thread reproduces the non-Unix degradation everywhere.
        out = {}

        def run():
            out["record"] = _run_point(quick_task, "pid0", {"x": 1.0}, 5.0, 1)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        record = out["record"]
        assert record["status"] == "ok"
        assert record["timeout_degraded"] is True
        delta = record["obs"]
        assert "campaign.timeout_unavailable" in delta["counters"]
        assert "campaign.timeout_unavailable#warning" in delta["events"]

    def test_armed_timeout_not_flagged(self):
        record = _run_point(quick_task, "pid0", {"x": 1.0}, 5.0, 1)
        assert "timeout_degraded" not in record

    def test_degraded_count_reaches_telemetry(self):
        from repro.campaign.telemetry import CampaignTelemetry

        t = CampaignTelemetry(total_points=1)
        t.record(
            {"status": "ok", "id": "a", "elapsed": 0.1, "timeout_degraded": True}
        )
        assert t.timeout_degraded == 1
        assert t.to_dict()["live"]["timeout_degraded"] == 1


class TestManifestOnResume:
    def test_mismatch_warns_but_resumes(self, tmp_path):
        store = tmp_path / "r.jsonl"
        # Run only half the campaign by killing via retry exhaustion: easier
        # to fabricate drift directly — run fully, tamper, resume retry_failed.
        run_campaign(_spec(quick_task, n=4), store, policy=_stall_policy())
        mpath = obs_manifest.manifest_path(store)
        manifest = obs_manifest.load_manifest(mpath)
        manifest["spec_hash"] = "deadbeefdeadbeef"
        manifest["python"] = "2.7.18"
        obs_manifest.write_manifest(mpath, manifest)
        result = resume_campaign(store, task=quick_task, retry_failed=True)
        t = result.telemetry
        mismatch_notes = [n for n in t.notes if "manifest mismatch" in n]
        assert len(mismatch_notes) == 2
        assert "campaign.manifest_mismatch#warning" in _event_names(t)
        updated = obs_manifest.load_manifest(mpath)
        assert updated["runs"] == 2
        assert updated["spec_hash"] != "deadbeefdeadbeef"  # rewritten clean

    def test_mismatch_reaches_a_two_worker_store(self, tmp_path):
        store = tmp_path / "r.jsonl"
        run_campaign(_spec(quick_task, n=4), store, policy=_stall_policy(workers=2))
        mpath = obs_manifest.manifest_path(store)
        manifest = obs_manifest.load_manifest(mpath)
        manifest["spec_hash"] = "deadbeefdeadbeef"
        obs_manifest.write_manifest(mpath, manifest)
        resume_campaign(store, task=quick_task, policy=_stall_policy(workers=2))
        assert "campaign.manifest_mismatch#warning" in load_snapshot(store)["events"]

    def test_clean_resume_has_no_mismatch(self, tmp_path):
        store = tmp_path / "r.jsonl"
        run_campaign(_spec(quick_task, n=4), store, policy=_stall_policy())
        result = resume_campaign(store, task=quick_task)
        assert not [
            n for n in result.telemetry.notes if "manifest mismatch" in n
        ]
        assert obs_manifest.load_manifest(
            obs_manifest.manifest_path(store)
        )["runs"] == 2


_KILL_CHILD = """
import sys, time
from repro.campaign import CampaignSpec, ListSpace, run_campaign
from tests.unit.test_campaign_live import slow_task

spec = CampaignSpec.create(
    name="kill-demo",
    space=ListSpace.of([{"x": float(i)} for i in range(14)]),
    task=slow_task,
)
run_campaign(spec, sys.argv[1], workers=2, heartbeat_interval=0.1,
             checkpoint_every=1)
"""


def _point_lines(store: Path) -> int:
    """Terminal point lines in the store and every worker shard."""
    files = [store, *sorted(shard_dir(store).glob("*.jsonl"))]
    return sum(
        path.read_text().count('"kind":"point"') for path in files if path.exists()
    )


class TestKillResumeDemo:
    def test_sigkill_watch_resume_with_continuous_stream(self, tmp_path):
        store = tmp_path / "kill.jsonl"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, ["src", os.environ.get("PYTHONPATH", "")])
            ),
            REPRO_OBS="1",
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_CHILD, str(store)],
            env=env,
            cwd=Path(__file__).resolve().parents[2],
            start_new_session=True,  # killpg takes the forked worker down too
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if _point_lines(store) >= 3:
                    break
                if proc.poll() is not None:
                    pytest.fail(
                        "campaign child exited early: "
                        + proc.stderr.read().decode(errors="replace")
                    )
                time.sleep(0.05)
            else:
                pytest.fail("campaign child never wrote 3 point records")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)
            proc.stderr.close()

        # The corpse: torn store tail is possible, the workers' logs remain.
        pre_kill_samples = LogReader(store).refresh().samples()
        assert pre_kill_samples, "logs should have samples from before the kill"

        # watch --once renders sane state from the torn files via the CLI.
        from repro.cli import main

        assert main(["campaign", "watch", str(store), "--once"]) == 0

        from repro.campaign.watch import render

        frame = render(store)
        assert "kill-demo" in frame
        assert "COMPLETE" not in frame.splitlines()[0]
        assert "manifest: spec" in frame

        # Resume: manifest verified (no drift -> no mismatch notes), the
        # dead workers' leases reclaimed at once (the ttl is the default
        # 30 s), the run completes, and the sample timeline continues.
        started = time.monotonic()
        result = resume_campaign(
            store,
            task=slow_task,
            workers=2,
            heartbeat_interval=0.1,
        )
        assert time.monotonic() - started < ExecutionPolicy().lease_ttl
        t = result.telemetry
        assert not [n for n in t.notes if "manifest mismatch" in n]
        assert t.skipped >= 3  # pre-kill records were not recomputed
        assert len(result.records) == 14
        assert all(r["status"] == "ok" for r in result.records)

        manifest = obs_manifest.load_manifest(obs_manifest.manifest_path(store))
        assert manifest["runs"] == 2

        # Every lease worker logs its own timeline into its own log.
        samples = LogReader(store).refresh().samples()
        assert len(samples) > len(pre_kill_samples)
        assert all({"seq", "time", "done", "worker"} <= set(s) for s in samples)
        timelines: dict = {}
        for sample in samples:
            timelines.setdefault(sample["worker"], []).append(sample["time"])
        assert all(times == sorted(times) for times in timelines.values())
        killed = {s["worker"] for s in pre_kill_samples}
        resumed = [s for s in samples if s["worker"] not in killed]
        assert min(s["time"] for s in resumed) >= max(
            s["time"] for s in pre_kill_samples
        )
        finals = {s["worker"]: s for s in resumed}  # each worker's last sample
        assert sum(s["done"] for s in finals.values()) == t.done
        # the store itself was never corrupted by the side-channel writers
        from repro.campaign import ResultStore, campaign_status

        status = campaign_status(store)
        assert status["complete"] is True
        assert max(ResultStore.open(store).terminal_record_counts().values()) == 1
        # the resumed workers stopped cleanly; the killed ones never did
        assert all(s["phase"] == "stopped" for s in finals.values())
        last = {s["worker"]: s for s in samples}
        assert all(last[w]["phase"] != "stopped" for w in killed)
