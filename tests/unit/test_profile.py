"""Sampling profiler: folding, attribution, log deltas, merge, emitters.

The live-sampling tests use thread mode (deterministic under pytest and
identical bucket plumbing); one signal-mode smoke test covers the
SIGPROF path itself.  The "free when off" contract gets the same
treatment as spans/trace: with no profiler running, the module holds no
state and installs nothing into the span/trace hot paths.
"""

import json
import threading
import time

import pytest

from repro._errors import ValidationError
from repro.obs import profile
from repro.obs import spans as obs
from repro.obs import trace
from repro.obs.trace import LogReader


@pytest.fixture(autouse=True)
def _clean_profiler():
    """Every test starts and ends with no profiler and no sink."""
    profile.stop()
    profile.close_sink()
    yield
    profile.stop()
    profile.close_sink()
    obs.set_profile_paths(None)
    trace.set_profile_traces(None)


def _burn(seconds=0.25):
    """Busy loop so CPU- and wall-clock samplers both see frames."""
    deadline = time.perf_counter() + seconds
    x = 0.0
    while time.perf_counter() < deadline:
        x += sum(i * i for i in range(100))
    return x


# -- disabled purity --------------------------------------------------------------


def test_disabled_profiler_holds_no_state():
    assert profile.active() is None
    assert not profile.sink_configured()
    # Nothing is installed into the span/trace hot paths.
    assert obs._profile_paths is None
    assert trace._profile_traces is None
    # stop/flush on a stopped profiler are no-ops.
    assert profile.stop() is None
    profile.flush()


def test_span_hot_path_untouched_without_profiler():
    obs.enable()
    try:
        with obs.span("probe"):
            assert obs._profile_paths is None
    finally:
        obs.disable()
        obs.reset()


# -- lifecycle and idempotency ----------------------------------------------------


def test_start_is_idempotent_and_stop_clears():
    first = profile.start(hz=101, mode="thread")
    second = profile.start(hz=55, mode="thread")
    assert second is first  # one itimer per process: first wins
    assert profile.active() is first
    result = profile.stop()
    assert result["kind"] == "profile"
    assert result["hz"] == 101
    assert profile.active() is None


def test_start_installs_and_stop_uninstalls_registries():
    profiler = profile.start(mode="thread")
    assert obs._profile_paths is profiler._span_paths
    assert trace._profile_traces is profiler._trace_ids
    profile.stop()
    assert obs._profile_paths is None
    assert trace._profile_traces is None


def test_stop_leaves_newer_profilers_registries_alone():
    old = profile.Profiler(mode="thread")
    old.start()
    new = profile.Profiler(mode="thread")
    new.start()  # takes over the registries
    old.stop()
    assert obs._profile_paths is new._span_paths  # not torn down by old
    new.stop()
    assert obs._profile_paths is None


def test_profiler_validates_hz_and_mode():
    with pytest.raises(ValidationError, match="hz"):
        profile.Profiler(hz=0)
    with pytest.raises(ValidationError, match="hz"):
        profile.Profiler(hz=5000)
    with pytest.raises(ValidationError, match="mode"):
        profile.Profiler(mode="quantum")


def test_requested_hz_parses_and_clamps(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_PROFILE_HZ", "251")
    assert profile.requested_hz() == 251
    monkeypatch.setenv("REPRO_OBS_PROFILE_HZ", "100000")
    assert profile.requested_hz() == profile.DEFAULT_HZ
    monkeypatch.setenv("REPRO_OBS_PROFILE_HZ", "banana")
    assert profile.requested_hz() == profile.DEFAULT_HZ
    monkeypatch.setenv("REPRO_OBS", "profile")
    assert profile.profile_requested()
    monkeypatch.setenv("REPRO_OBS", "1")
    assert not profile.profile_requested()


# -- live sampling ----------------------------------------------------------------


def test_thread_mode_samples_busy_work():
    profiler = profile.start(hz=200, mode="thread")
    _burn()
    snap = profile.stop()
    assert profiler.clock == "wall"
    assert snap["samples"] > 0
    assert snap["stacks"], "busy work must fold into at least one stack"
    # The profiler's own frames (sampler loop, collector) never appear.
    for entry in snap["stacks"]:
        assert "profile._run_thread" not in entry["stack"]
        assert "profile._collect" not in entry["stack"]


def test_parked_threads_are_counted_not_sampled():
    """A thread sitting in Event.wait adds no stack, only ``parked``."""
    gate = threading.Event()
    sleeper = threading.Thread(target=gate.wait, name="parked-in-wait")
    sleeper.start()
    try:
        profile.start(hz=300, mode="thread")
        _burn(0.3)
        snap = profile.stop()
    finally:
        gate.set()
        sleeper.join(timeout=10.0)
    assert not sleeper.is_alive()
    assert snap["parked"] > 0
    assert snap["stacks"], "the computing main thread is still sampled"
    assert any("_burn" in e["stack"] for e in snap["stacks"])
    for entry in snap["stacks"]:
        assert entry["stack"].split(";")[-1] != "threading.wait"
    # Deltas and merges carry the count along.
    merged = profile.merge_profiles([snap, snap])
    assert merged["parked"] == 2 * snap["parked"]
    assert profile.profile_delta(snap, snap)["parked"] == 0


def test_signal_mode_samples_cpu_time():
    try:
        profiler = profile.Profiler(hz=500, mode="signal")
    except ValidationError:
        pytest.skip("no SIGPROF on this platform/thread")
    profiler.start()
    _burn()
    snap = profiler.stop()
    assert profiler.clock == "cpu"
    assert snap["samples"] > 0
    assert snap["stacks"]


def test_samples_attribute_to_span_path_and_trace_id():
    obs.enable()
    profile.start(hz=300, mode="thread")
    try:
        ctx = trace.new_context()
        with trace.activate(ctx):
            with obs.span("outer"):
                with obs.span("inner"):
                    _burn(0.4)
    finally:
        snap = profile.stop()
        obs.disable()
        obs.reset()
    spanned = [e for e in snap["stacks"] if e["span"] == "outer/inner"]
    assert spanned, "samples during the span must carry its path"
    assert any(ctx.trace_id in e["trace_ids"] for e in spanned)


def test_campaign_context_fallback_attributes_foreign_threads():
    ctx = trace.new_context()
    trace.set_campaign(ctx)
    profile.start(hz=300, mode="thread")
    try:
        worker = threading.Thread(target=_burn, args=(0.3,))
        worker.start()
        worker.join()
    finally:
        snap = profile.stop()
        trace.set_campaign(None)
    burns = [e for e in snap["stacks"] if "_burn" in e["stack"]]
    assert burns
    assert any(ctx.trace_id in e["trace_ids"] for e in burns)


# -- capture ----------------------------------------------------------------------


def test_capture_validates_seconds():
    with pytest.raises(ValidationError, match="seconds"):
        profile.capture(0.0)
    with pytest.raises(ValidationError, match="seconds"):
        profile.capture(601.0)


def test_capture_rejects_concurrent_captures():
    assert profile._capture_lock.acquire(blocking=False)
    try:
        with pytest.raises(ValidationError, match="already running"):
            profile.capture(0.1, mode="thread")
    finally:
        profile._capture_lock.release()


def test_capture_with_running_profiler_returns_delta():
    profile.start(hz=300, mode="thread")
    try:
        cap = profile.capture(0.3)
        _ = _burn(0.05)
    finally:
        profile.stop()
    assert cap["kind"] == "profile"
    assert cap["samples"] >= 0  # delta window, not the cumulative count


# -- log sink ---------------------------------------------------------------------


def test_sink_round_trip_and_atomicity(tmp_path):
    store = tmp_path / "campaign.jsonl"
    log = profile.configure_sink(trace.log_path(store, "w1"))
    assert log == store.parent / "campaign.jsonl.trace" / "w1.jsonl"
    profile.start(hz=200, mode="thread")
    _burn(0.2)
    profile.flush()
    reader = LogReader(store).refresh()
    (mid,) = reader.profiles()
    assert mid["kind"] == "profile" and mid["worker"]
    _burn(0.1)
    final = profile.stop()  # final flush: the samples since the last one
    profile.close_sink()
    deltas = reader.refresh().profiles()
    assert deltas[0] == mid
    # The deltas add up to the final snapshot, bucket by bucket.
    merged = profile.merge_profiles(deltas)
    assert merged["samples"] == final["samples"]
    assert {(e["span"], e["stack"]): e["count"] for e in merged["stacks"]} == {
        (e["span"], e["stack"]): e["count"] for e in final["stacks"]
    }
    # Whole lines only, and no temp files beside the log.
    assert log.read_text().endswith("\n")
    assert [p.name for p in log.parent.iterdir()] == ["w1.jsonl"]
    assert not profile.sink_configured()


def test_concurrent_flushes_never_count_a_sample_twice(tmp_path):
    """Sampler ticks and the owner may flush at once; the deltas still add
    up to the final snapshot."""
    import sys

    log = profile.configure_sink(tmp_path / "w.jsonl")
    profile.start(hz=500, mode="thread")
    stop = threading.Event()

    def flush_loop():
        while not stop.is_set():
            profile.flush()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    flushers = [threading.Thread(target=flush_loop) for _ in range(4)]
    try:
        for thread in flushers:
            thread.start()
        _burn(0.3)
    finally:
        stop.set()
        for thread in flushers:
            thread.join(timeout=10)
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in flushers)
    final = profile.stop()
    merged = profile.merge_profiles(LogReader(logs=[log]).refresh().profiles())
    assert final["samples"] > 0
    assert merged["samples"] == final["samples"]
    assert sum(e["count"] for e in merged["stacks"]) == sum(
        e["count"] for e in final["stacks"]
    )


def test_configure_sink_json_target_is_used_verbatim(tmp_path):
    path = profile.configure_sink(tmp_path / "serve.trace.jsonl")
    assert path == tmp_path / "serve.trace.jsonl"
    profile.close_sink()


def test_read_profile_rejects_torn_and_foreign_files(tmp_path):
    log = tmp_path / "w.jsonl"
    log.write_text(
        json.dumps({"kind": "trace", "spans": []}) + "\n"
        + json.dumps({"kind": "profile", "samples": 2, "stacks": []}) + "\n"
        + '{"kind": "prof'
    )
    reader = LogReader(logs=[log, tmp_path / "missing.jsonl"]).refresh()
    assert [p["samples"] for p in reader.profiles()] == [2]


def test_load_store_profiles_skips_bad_shards(tmp_path):
    store = tmp_path / "c.jsonl"
    log_dir = trace.trace_dir(store)
    log_dir.mkdir()
    good = {"kind": "profile", "samples": 3, "stacks": []}
    (log_dir / "a.jsonl").write_text(json.dumps(good) + "\n")
    (log_dir / "b.jsonl").write_text("garbage\n")
    profiles = LogReader(store).refresh().profiles()
    assert len(profiles) == 1
    assert profiles[0]["samples"] == 3


# -- merge / delta ----------------------------------------------------------------


def _shard(worker, stacks, samples=None, host="h1", hz=97, clock="cpu"):
    return {
        "kind": "profile",
        "worker": worker,
        "host": host,
        "hz": hz,
        "clock": clock,
        "samples": samples if samples is not None else sum(
            e["count"] for e in stacks
        ),
        "dropped": 0,
        "stacks": stacks,
    }


def test_merge_profiles_sums_buckets_and_dedups_traces():
    a = _shard("w1", [
        {"span": "run", "stack": "m.f;m.g", "count": 4, "trace_ids": {"t1": 4}},
    ])
    b = _shard("w2", [
        {"span": "run", "stack": "m.f;m.g", "count": 6, "trace_ids": {"t1": 2, "t2": 4}},
        {"span": "", "stack": "m.h", "count": 1, "trace_ids": {}},
    ], host="h2")
    merged = profile.merge_profiles([a, b])
    assert merged["merged"] == 2
    assert merged["workers"] == ["w1", "w2"]
    assert merged["hosts"] == ["h1", "h2"]
    assert merged["samples"] == 11
    top = merged["stacks"][0]  # hottest first
    assert (top["span"], top["stack"], top["count"]) == ("run", "m.f;m.g", 10)
    assert top["trace_ids"] == {"t1": 6, "t2": 4}


def test_merge_profiles_mixed_clocks_are_labelled():
    merged = profile.merge_profiles([
        _shard("w1", [], clock="cpu"), _shard("w2", [], clock="wall"),
    ])
    assert merged["clock"] == "cpu+wall"


def test_profile_delta_subtracts_and_drops_empty():
    before = _shard("w", [
        {"span": "s", "stack": "m.f", "count": 5, "trace_ids": {"t1": 5}},
        {"span": "s", "stack": "m.g", "count": 2, "trace_ids": {}},
    ], samples=7)
    after = _shard("w", [
        {"span": "s", "stack": "m.f", "count": 9, "trace_ids": {"t1": 6, "t2": 3}},
        {"span": "s", "stack": "m.g", "count": 2, "trace_ids": {}},
    ], samples=12)
    delta = profile.profile_delta(before, after)
    assert delta["samples"] == 5
    (entry,) = delta["stacks"]  # unchanged m.g bucket disappears
    assert entry["count"] == 4
    assert entry["trace_ids"] == {"t1": 1, "t2": 3}


# -- emitters ---------------------------------------------------------------------


PROFILE = {
    "kind": "profile", "hz": 97, "clock": "cpu", "samples": 10, "dropped": 0,
    "stacks": [
        {"span": "run/grid", "stack": "m.f;m.g", "count": 7, "trace_ids": {}},
        {"span": "", "stack": "m.f;m.h", "count": 3, "trace_ids": {}},
    ],
}


def test_to_collapsed_prepends_span_frames():
    text = profile.to_collapsed(PROFILE)
    assert text.splitlines() == [
        "span:run;span:grid;m.f;m.g 7",
        "m.f;m.h 3",
    ]
    assert profile.to_collapsed({"stacks": []}) == ""


def test_flamegraph_html_embeds_the_tree():
    html = profile.to_flamegraph_html(PROFILE, title="unit test")
    assert "<title>unit test</title>" in html
    assert "10 samples at 97 Hz" in html
    tree = json.loads(html.split("var data = ", 1)[1].split(";\n", 1)[0])
    assert tree["name"] == "all"
    assert tree["value"] == 10


def test_top_frames_ranks_by_self_samples():
    top = profile.top_frames(PROFILE, n=2)
    assert [e["frame"] for e in top] == ["m.g", "m.h"]
    assert top[0]["self"] == 7
    assert top[0]["fraction"] == pytest.approx(0.7)
    # m.f never appears as a leaf, but totals count it in both stacks.
    assert profile.top_frames(PROFILE, n=5)[0]["total"] == 7
    assert profile.top_frames({"stacks": []}, n=3) == []


def test_bucket_cap_counts_dropped_samples():
    profiler = profile.Profiler(hz=100, mode="thread")
    for i in range(profile.MAX_BUCKETS):
        profiler._buckets[("", f"m.f{i}")] = [1, {}]
    profiler._record(1, "m.overflow")
    assert profiler.dropped == 1
    assert ("", "m.overflow") not in profiler._buckets
