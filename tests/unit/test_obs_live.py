"""Unit tests for the live-telemetry obs modules.

Covers ``repro.obs.heartbeat`` (the sampler: samples in the telemetry
log, point state, fault injection: a raising sample source is swallowed +
counted), the log reader of ``repro.obs.trace`` (torn-line tolerance),
``repro.obs.resources`` (RSS probes, memory budget sentinel), and
``repro.obs.manifest`` (build/write/load/check round-trip).
"""

import json
import os
import time

import pytest

from repro.obs import heartbeat, manifest, resources, stream
from repro.obs import spans as obs
from repro.obs.trace import LogReader


@pytest.fixture(autouse=True)
def _obs_reset():
    was_enabled = obs.enabled()
    obs.disable()
    obs.reset()
    yield
    heartbeat.point_finished()
    (obs.enable if was_enabled else obs.disable)()
    obs.reset()


def _samples(log):
    return LogReader(logs=[log]).refresh().samples()


# -- heartbeat ---------------------------------------------------------------------


class TestHeartbeat:
    def test_emitter_writes_beat_for_this_pid(self, tmp_path):
        log = tmp_path / "r.jsonl.trace" / "w.jsonl"
        sampler = heartbeat.Sampler(log, dict, interval=10.0)
        sampler.start()
        try:
            beats = _samples(log)
        finally:
            sampler.stop()
        assert [b["pid"] for b in beats] == [os.getpid()]
        beat = beats[0]
        assert beat["kind"] == "sample"
        assert beat["phase"] == "idle"
        assert beat["rss_bytes"] > 0

    def test_point_phase_round_trip(self, tmp_path):
        log = tmp_path / "w.jsonl"
        heartbeat.point_started("abc123")
        sampler = heartbeat.Sampler(log, dict, interval=10.0)
        sampler.start()
        (beat,) = _samples(log)
        assert beat["phase"] == "point"
        assert beat["point_id"] == "abc123"
        assert beat["point_elapsed"] >= 0.0
        heartbeat.point_finished()
        errors = sampler.stop()
        assert errors == 0
        final = _samples(log)[-1]
        assert final["phase"] == "stopped"

    def test_counters_included_when_obs_enabled(self, tmp_path):
        obs.enable()
        obs.add("campaign.points_processed", 3.0)
        log = tmp_path / "w.jsonl"
        sampler = heartbeat.Sampler(log, dict, interval=10.0)
        sampler.start()
        sampler.stop()
        beat = _samples(log)[0]
        assert beat["counters"]["campaign.points_processed"] == 3.0

    def test_reader_skips_garbage_files(self, tmp_path):
        store = tmp_path / "r.jsonl"
        directory = store.parent / "r.jsonl.trace"
        directory.mkdir()
        (directory / "123.jsonl").write_text(
            '{"kind": "sample", "pid": 123, "time": 1.0}\n'
        )
        (directory / "456.jsonl").write_text("{torn mid-wri")
        (directory / "789.jsonl").write_text('["not", "a", "beat"]\n')
        (directory / "000.json").write_text('{"kind": "sample", "pid": 0}\n')
        beats = LogReader(store).refresh().samples()
        assert [b["pid"] for b in beats] == [123]

    def test_missing_directory_reads_empty(self, tmp_path):
        log = LogReader(tmp_path / "nope.jsonl").refresh()
        assert log.samples() == [] and log.spans() == [] and log.profiles() == []

    def test_beat_age(self):
        beat = {"time": 100.0}
        assert heartbeat.beat_age(beat, now=103.5) == pytest.approx(3.5)
        assert heartbeat.beat_age(beat, now=99.0) == 0.0  # clock skew clamps

    def test_heartbeat_dir_is_next_to_store(self, tmp_path):
        store = tmp_path / "run.jsonl"
        assert heartbeat.heartbeat_dir(store) == tmp_path / "run.jsonl.heartbeats"


# -- samples -----------------------------------------------------------------------


class TestStream:
    def test_emits_sequenced_samples(self, tmp_path):
        log = tmp_path / "w.jsonl"
        sampler = heartbeat.Sampler(log, lambda: {"done": 1}, interval=0.02)
        sampler.start()
        time.sleep(0.1)
        sampler.stop()
        records = _samples(log)
        assert len(records) >= 3  # t=0 sample + periodic + final
        assert [r["seq"] for r in records] == list(range(len(records)))
        times = [r["time"] for r in records]
        assert times == sorted(times)
        assert all(r["kind"] == "sample" and r["done"] == 1 for r in records)
        assert len({r["run"] for r in records}) == 1
        assert sampler.errors == 0

    def test_raising_sampler_swallowed_and_counted(self, tmp_path):
        obs.enable()

        def bad_sample():
            raise RuntimeError("boom")

        sampler = heartbeat.Sampler(tmp_path / "m.jsonl", bad_sample, interval=0.02)
        sampler.start()
        time.sleep(0.08)
        errors = sampler.stop()
        assert errors >= 2  # t=0 + final at minimum
        counters = obs.snapshot()["counters"]
        assert counters["campaign.heartbeat_errors"]["value"] == errors
        assert _samples(tmp_path / "m.jsonl") == []

    def test_read_stream_skips_torn_tail(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"kind": "sample", "seq": 0}) + "\n"
            + json.dumps({"kind": "sample", "seq": 1}) + "\n"
            + '{"kind": "sample", "seq": 2, "tru'  # SIGKILL mid-append
        )
        assert [r["seq"] for r in _samples(path)] == [0, 1]

    def test_read_missing_stream_is_empty(self, tmp_path):
        assert _samples(tmp_path / "none.jsonl") == []

    def test_requested_env_switch(self, monkeypatch):
        from repro.obs import profile

        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert not profile.profile_requested()
        monkeypatch.setenv("REPRO_OBS", "1")
        assert not profile.profile_requested()
        monkeypatch.setenv("REPRO_OBS", "Profile")
        assert profile.profile_requested()
        assert "profile" in obs._LEVELS  # the profile level turns spans on too

    def test_default_path_is_next_to_store(self, tmp_path):
        store = tmp_path / "run.jsonl"
        assert stream.stream_path(store) == tmp_path / "run.jsonl.stream.jsonl"


# -- resources ---------------------------------------------------------------------


class TestResources:
    def test_rss_probes_positive_and_consistent(self):
        peak = resources.peak_rss_bytes()
        current = resources.current_rss_bytes()
        assert peak > 0
        assert current > 0
        assert current <= peak * 1.5  # same order of magnitude

    def test_point_probe_round_trip(self):
        resources.configure(None)
        state = resources.point_probe_begin()
        mem = resources.point_probe_end(state)
        assert mem["rss_peak"] > 0
        assert mem["rss_delta"] >= 0
        assert "over_budget" not in mem

    def test_budget_sentinel_flags_and_emits(self):
        obs.enable()
        resources.configure(budget_mb=0.001)  # guaranteed exceeded
        try:
            mem = resources.point_probe_end(resources.point_probe_begin())
        finally:
            resources.configure(None)
        assert mem["over_budget"] is True
        events = obs.snapshot()["events"]
        assert "campaign.memory_budget#warning" in events

    def test_budget_silent_when_obs_disabled(self):
        resources.configure(budget_mb=0.001)
        try:
            mem = resources.point_probe_end(resources.point_probe_begin())
        finally:
            resources.configure(None)
        assert mem["over_budget"] is True  # record flag still present
        assert obs.snapshot()["events"] == {}

    def test_tracemalloc_requested_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_MEM", raising=False)
        assert not resources.tracemalloc_requested()
        monkeypatch.setenv("REPRO_OBS_MEM", "yes")
        assert resources.tracemalloc_requested()

    def test_tracemalloc_top_allocations(self, monkeypatch):
        import tracemalloc

        monkeypatch.setenv("REPRO_OBS_MEM", "1")
        was_tracing = tracemalloc.is_tracing()
        try:
            state = resources.point_probe_begin()
            ballast = [bytes(200_000) for _ in range(5)]
            mem = resources.point_probe_end(state)
            del ballast
        finally:
            if not was_tracing:
                tracemalloc.stop()
        top = mem.get("alloc_top")
        assert top, "expected tracemalloc top allocations"
        assert all({"site", "size_bytes", "count"} <= set(entry) for entry in top)
        assert max(entry["size_bytes"] for entry in top) >= 500_000


# -- manifest ----------------------------------------------------------------------


def _spec():
    from repro.campaign import CampaignSpec, ListSpace

    return CampaignSpec.create(
        name="manifest-spec",
        space=ListSpace.of([{"x": 1.0}, {"x": 2.0}]),
        task="margins",
    )


class TestManifest:
    def test_build_write_load_round_trip(self, tmp_path):
        from repro.campaign import ExecutionPolicy

        spec = _spec()
        built = manifest.build_manifest(spec, ExecutionPolicy(workers=3))
        path = manifest.manifest_path(tmp_path / "run.jsonl")
        manifest.write_manifest(path, built)
        loaded = manifest.load_manifest(path)
        assert loaded == json.loads(json.dumps(built))  # JSON-stable
        assert loaded["campaign"] == "manifest-spec"
        assert loaded["task"] == "margins"
        assert loaded["points"] == 2
        assert loaded["policy"]["workers"] == 3
        assert loaded["python"]
        assert loaded["numpy"]
        assert len(loaded["spec_hash"]) == 16

    def test_fingerprint_is_deterministic_and_sensitive(self):
        from repro.campaign import CampaignSpec, ListSpace

        a = manifest.spec_fingerprint(_spec())
        b = manifest.spec_fingerprint(_spec())
        other = CampaignSpec.create(
            name="manifest-spec",
            space=ListSpace.of([{"x": 1.0}, {"x": 3.0}]),
            task="margins",
        )
        assert a == b
        assert a != manifest.spec_fingerprint(other)

    def test_load_missing_or_corrupt_is_none(self, tmp_path):
        assert manifest.load_manifest(tmp_path / "nope.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert manifest.load_manifest(bad) is None
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"kind": "something-else"}')
        assert manifest.load_manifest(wrong) is None

    def test_check_reports_only_real_drift(self):
        current = {"spec_hash": "aa", "task": "margins", "points": 4, "python": "3.11.1"}
        same = dict(current)
        assert manifest.check_manifest(same, current) == []
        drifted = dict(current, spec_hash="bb", task="noise_summary")
        mismatches = manifest.check_manifest(drifted, current)
        assert len(mismatches) == 2
        assert any("spec_hash" in m for m in mismatches)
        # keys absent on one side are not drift (schema growth stays resumable)
        assert manifest.check_manifest({"spec_hash": "aa"}, current) == []
