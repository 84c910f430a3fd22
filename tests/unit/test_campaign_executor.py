"""Failure-path tests for the campaign executor.

Covers retry-then-record-failure, per-point timeout on a hanging adapter
(including adapters that catch ``Exception`` broadly), resume-after-kill
from a partial JSONL store, and the equivalence of serial runs with runs of
two lease workers (``workers=2``).
"""

import math
import os
import time

import numpy as np
import pytest

from repro._errors import ValidationError
from repro.campaign import (
    CampaignSpec,
    ExecutionPolicy,
    GridSpace,
    ListSpace,
    ResultStore,
    resume_campaign,
    run_campaign,
)

MARKED = 0.75  # the poisoned x value for failure-injection tasks


def square_task(params):
    """Deterministic, cheap, picklable."""
    x = float(params["x"])
    return {"square": x * x, "cube": x**3}


def flaky_task(params):
    """Raises on the marked point — every attempt."""
    if params["x"] == MARKED:
        raise RuntimeError("singular closed-loop solve")
    return square_task(params)


def hang_task(params):
    """Hangs on the marked point, inside a broad ``except Exception``."""
    if params["x"] == MARKED:
        try:
            time.sleep(30.0)
        except Exception:
            pass  # must NOT be able to swallow the timeout
    return square_task(params)


def pid_task(params):
    return {"pid": float(os.getpid())}


def slow_pid_task(params):
    """Slow enough that both workers find a batch to claim."""
    time.sleep(0.2)
    return pid_task(params)


def xspace(values=(0.25, 0.5, MARKED, 1.0)):
    return ListSpace.of([{"x": float(v)} for v in values])


def make_spec(task, values=(0.25, 0.5, MARKED, 1.0), name="exec-test"):
    return CampaignSpec.create(name=name, space=xspace(values), task=task)


class TestErrorCapture:
    def test_one_bad_point_does_not_kill_the_run(self):
        result = run_campaign(make_spec(flaky_task))
        assert result.telemetry.done == 3
        assert result.telemetry.failed == 1
        failed = result.failed_records
        assert len(failed) == 1
        assert failed[0]["params"]["x"] == MARKED
        assert failed[0]["error"]["type"] == "RuntimeError"
        assert "singular" in failed[0]["error"]["message"]
        assert "traceback" in failed[0]["error"]
        # Metric arrays are NaN at the failed point, values elsewhere.
        squares = result.metric("square")
        assert np.isnan(squares[2])
        assert squares[0] == 0.25**2 and squares[3] == 1.0

    def test_retry_then_record_failure(self):
        result = run_campaign(make_spec(flaky_task), retries=2)
        record = result.failed_records[0]
        assert record["attempts"] == 3  # 1 initial + 2 retries
        assert result.telemetry.retried == 2
        # The healthy points were not retried.
        assert all(r["attempts"] == 1 for r in result.ok_records)

    def test_non_mapping_return_is_a_captured_failure(self):
        result = run_campaign(make_spec(lambda params: 42.0))
        assert result.telemetry.failed == 4
        assert result.failed_records[0]["error"]["type"] == "ValidationError"

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            ExecutionPolicy(retries=-1)
        with pytest.raises(ValidationError):
            ExecutionPolicy(timeout=0.0)
        with pytest.raises(ValidationError):
            ExecutionPolicy(lease_ttl=0.0)


@pytest.mark.skipif(
    not hasattr(__import__("signal"), "SIGALRM"), reason="needs SIGALRM"
)
class TestTimeout:
    def test_hang_is_interrupted_and_recorded(self):
        start = time.perf_counter()
        result = run_campaign(make_spec(hang_task), timeout=0.3)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0  # nowhere near the 30 s sleep
        assert result.telemetry.done == 3
        failed = result.failed_records
        assert len(failed) == 1
        assert failed[0]["error"]["type"] == "PointTimeout"
        assert "timeout" in failed[0]["error"]["message"]

    def test_timeout_then_retry_counts_attempts(self):
        result = run_campaign(make_spec(hang_task), timeout=0.2, retries=1)
        assert result.failed_records[0]["attempts"] == 2
        assert result.telemetry.retried == 1


class TestSerialPoolEquivalence:
    """``workers=2`` runs two lease workers; the serial path is the oracle."""

    def test_pool_results_bitwise_identical_to_serial(self):
        spec = make_spec(square_task, values=np.linspace(0.1, 2.0, 8))
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=2, batch_size=2)
        assert serial.telemetry.mode == "serial"
        assert pooled.telemetry.mode == "lease"
        assert pooled.telemetry.workers == 2
        assert [r["id"] for r in pooled.records] == [
            r["id"] for r in serial.records
        ]
        for a, b in zip(serial.records, pooled.records):
            assert a["metrics"] == b["metrics"]  # bitwise: exact float equality
        assert serial.metric("square").tobytes() == pooled.metric("square").tobytes()

    def test_pool_actually_uses_worker_processes(self):
        # Six 0.2 s points in one-point batches: the forked helper claims
        # a batch long before the caller could finish them all.
        spec = make_spec(slow_pid_task, values=np.linspace(0.1, 1.6, 6))
        result = run_campaign(spec, workers=2, batch_size=1)
        worker_pids = {r["worker"] for r in result.records}
        assert len(worker_pids) >= 2
        assert result.telemetry.done == 6

    def test_closure_task_runs_on_two_processes(self):
        marker = object()  # unpicklable: fork copies the task, never pickles it

        def task(params):
            assert marker is not None
            time.sleep(0.2)
            return {"m": float(params["x"]), "pid": float(os.getpid())}

        result = run_campaign(make_spec(task), workers=2, batch_size=1)
        assert result.telemetry.mode == "lease"
        assert result.telemetry.done == 4
        assert len({r["metrics"]["pid"] for r in result.records}) == 2

    def test_more_workers_than_cores_record_each_point_once(self, tmp_path):
        # Four lease workers race for 40 one-point batches: every claim,
        # done marker and merge must still yield one terminal record each.
        spec = make_spec(square_task, values=np.linspace(0.1, 4.0, 40))
        serial = run_campaign(spec)
        raced = run_campaign(
            spec, tmp_path / "r.jsonl", workers=4, batch_size=1,
            heartbeat_interval=None,
        )
        assert [r["metrics"] for r in raced.records] == [
            r["metrics"] for r in serial.records
        ]
        counts = ResultStore.open(tmp_path / "r.jsonl").terminal_record_counts()
        assert len(counts) == 40 and set(counts.values()) == {1}
        # A claim can land just after another worker finished and released
        # that batch; it computes nothing and counts as a duplicate.
        telemetry = raced.telemetry
        assert telemetry.lease_claims - telemetry.lease_duplicates == 40

    def test_storeless_run_returns_every_record_and_leaves_no_files(
        self, tmp_path, monkeypatch
    ):
        # Lease workers need a store: a private temporary one, removed
        # after the records are read back.
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        result = run_campaign(make_spec(square_task), workers=2)
        assert result.store_path is None
        assert result.telemetry.mode == "lease" and result.telemetry.done == 4
        assert [r["params"]["x"] for r in result.records] == [0.25, 0.5, MARKED, 1.0]
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_starts_without_the_old_runs_shards(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_campaign(make_spec(flaky_task), path, workers=2)
        again = run_campaign(make_spec(square_task), path, workers=2, overwrite=True)
        assert again.telemetry.done == 4 and not again.failed_records
        assert ResultStore.open(path).merged_status()["failed"] == 0

    def test_without_fork_runs_serially_with_a_note(self, monkeypatch):
        monkeypatch.setattr("multiprocessing.get_all_start_methods", lambda: ["spawn"])
        result = run_campaign(make_spec(square_task), workers=2)
        assert result.telemetry.mode == "serial" and result.telemetry.done == 4
        assert any("fork is unavailable" in n for n in result.telemetry.notes)

    def test_pool_failures_capture_per_point(self):
        result = run_campaign(
            make_spec(flaky_task), workers=2, retries=1
        )
        assert result.telemetry.done == 3
        assert result.telemetry.failed == 1
        assert result.failed_records[0]["attempts"] == 2


class TestResume:
    def test_resume_after_kill_skips_finished_points(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        spec = make_spec(square_task, values=(0.1, 0.2, 0.3, 0.4, 0.5))
        full = run_campaign(spec, path, checkpoint_every=2)
        assert full.telemetry.done == 5

        # Simulate a crash: keep the header, the first two point records and
        # a torn partial third line.
        lines = path.read_text().splitlines()
        points = [l for l in lines if '"kind":"point"' in l]
        path.write_text(
            "\n".join([lines[0]] + points[:2]) + "\n" + points[2][:25]
        )

        calls_before = ResultStore.open(path).point_records()
        assert len(calls_before) == 2

        resumed = resume_campaign(path, task=square_task)
        assert resumed.telemetry.skipped == 2
        assert resumed.telemetry.done == 3  # only the missing points ran
        assert len(resumed.records) == 5
        # Store now holds all five terminal records, once each.
        final = ResultStore.open(path)
        assert len(final.point_records()) == 5
        assert final.status()["complete"]
        # Recomputed points agree exactly with the uninterrupted run.
        for a, b in zip(full.records, resumed.records):
            assert a["id"] == b["id"] and a["metrics"] == b["metrics"]

    def test_resume_recomputes_nothing_when_complete(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        spec = make_spec(square_task)
        run_campaign(spec, path)
        resumed = resume_campaign(path, task=square_task)
        assert resumed.telemetry.skipped == 4
        assert resumed.telemetry.processed == 0

    def test_resume_from_registry_task_needs_no_callable(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        spec = CampaignSpec.create(
            name="registry-resume",
            space=GridSpace.of(ratio=[0.05, 0.1], separation=[3.0, 4.0]),
            task="stability_limit",
            defaults={"omega0": 2 * math.pi, "tol": 5e-3},
        )
        first = run_campaign(spec, path)
        assert first.telemetry.done == 4
        lines = path.read_text().splitlines()
        points = [l for l in lines if '"kind":"point"' in l]
        path.write_text("\n".join([lines[0]] + points[:1]) + "\n")
        resumed = resume_campaign(path)  # spec + task rebuilt from the header
        assert resumed.telemetry.skipped == 1 and resumed.telemetry.done == 3
        for a, b in zip(first.records, resumed.records):
            assert a["metrics"] == b["metrics"]

    def test_retry_failed_reruns_terminal_failures(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_campaign(make_spec(flaky_task), path)
        # Default resume keeps the failure as terminal...
        resumed = resume_campaign(path, task=flaky_task)
        assert resumed.telemetry.skipped == 4 and resumed.telemetry.processed == 0
        # ...with a now-healthy task, retry_failed completes the map.
        healed = resume_campaign(path, task=square_task, retry_failed=True)
        assert healed.telemetry.skipped == 3
        assert healed.telemetry.done == 1 and healed.telemetry.failed == 0
        assert not healed.failed_records

    def test_retry_failed_resume_on_two_workers(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        first = run_campaign(make_spec(flaky_task), path, workers=2, batch_size=1)
        assert first.telemetry.failed == 1
        healed = resume_campaign(
            path, task=square_task, retry_failed=True, workers=2
        )
        assert healed.telemetry.skipped == 3
        assert healed.telemetry.done == 1 and healed.telemetry.failed == 0
        assert not healed.failed_records
        assert ResultStore.open(path).merged_status()["failed"] == 0
        summaries = [
            r for r in ResultStore.open(path).records() if r["kind"] == "summary"
        ]
        assert len(summaries) == 2  # one per run
        assert summaries[-1]["merged"]["done"] == 4
        assert summaries[-1]["merged"]["failed"] == 0


class TestTelemetry:
    def test_summary_and_dict_fields(self):
        result = run_campaign(make_spec(flaky_task), retries=1)
        data = result.telemetry.to_dict()
        assert data["total_points"] == 4
        assert data["done"] == 3 and data["failed"] == 1 and data["retried"] == 1
        assert data["wall_seconds"] > 0
        assert 0 <= data["utilization"] <= 1.5
        assert data["cache"]["worker_processes"] == 1
        text = result.telemetry.summary()
        assert "3 ok" in text and "1 failed" in text and "1 retries" in text

    def test_store_gets_summary_and_checkpoints(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_campaign(
            make_spec(square_task, values=(0.1, 0.2, 0.3, 0.4, 0.5)),
            path,
            checkpoint_every=2,
        )
        kinds = [r["kind"] for r in ResultStore.open(path).records()]
        assert kinds.count("checkpoint") >= 2
        assert kinds[-1] == "summary"
        assert kinds[0] == "campaign"

    def test_grid_cache_deltas_surface_in_telemetry(self):
        # The band_map task evaluates HTM grids through dense_grid -> cache
        # misses on a cold cache, visible per worker in the telemetry.
        from repro.core.memo import clear_cache

        clear_cache()
        spec = CampaignSpec.create(
            name="cache-vis",
            space=ListSpace.of([{"ratio": 0.05}, {"ratio": 0.08}]),
            task="band_map",
            defaults={"order": 3, "points": 12},
        )
        result = run_campaign(spec)
        stats = result.telemetry.to_dict()["cache"]
        assert stats["misses"] > 0
        assert stats["worker_processes"] == 1
        assert result.telemetry.worker_caches[0].cache_misses > 0
