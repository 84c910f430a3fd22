"""SLO definitions, burn-rate math, store evaluation, CLI gating."""

import json
import math
import threading

import pytest

from repro._errors import ValidationError
from repro.campaign import CampaignSpec, GridSpace, ListSpace
from repro.campaign.lease import ensure_plan, lease_dir, run_worker
from repro.campaign.store import ResultStore
from repro.campaign.watch import poll_store, render
from repro.cli import main
from repro.obs import slo
from repro.obs import spans as obs
from repro.obs.trace import trace_dir


# -- definitions and validation ---------------------------------------------------


def test_burn_window_validation():
    with pytest.raises(ValidationError, match="positive"):
        slo.BurnWindow("w", 0.0, 60.0, 1.0)
    with pytest.raises(ValidationError, match="short window"):
        slo.BurnWindow("w", 120.0, 60.0, 1.0)
    with pytest.raises(ValidationError, match="factor"):
        slo.BurnWindow("w", 60.0, 120.0, 0.0)


def test_sli_spec_validation():
    with pytest.raises(ValidationError, match="kind"):
        slo.SLISpec(kind="vibes")
    with pytest.raises(ValidationError, match="bad"):
        slo.SLISpec(kind="error_ratio")
    with pytest.raises(ValidationError, match="histogram"):
        slo.SLISpec(kind="latency")
    with pytest.raises(ValidationError, match="threshold_seconds"):
        slo.SLISpec(kind="latency", histogram="h", threshold_seconds=-1.0)
    with pytest.raises(ValidationError, match="min_severity"):
        slo.SLISpec(kind="health_events", total=("done",), min_severity="meh")


def test_slo_definition_validation_and_budget():
    sli = slo.SLISpec(kind="error_ratio", bad=("failed",), total=("done",))
    with pytest.raises(ValidationError, match="objective"):
        slo.SLODefinition(name="x", objective=1.5, sli=sli)
    with pytest.raises(ValidationError, match="name"):
        slo.SLODefinition(name="", objective=0.99, sli=sli)
    definition = slo.SLODefinition(name="x", objective=0.99, sli=sli)
    assert definition.budget == pytest.approx(0.01)
    assert definition.windows == slo.DEFAULT_WINDOWS


def test_parse_slo_spec_round_trip_and_errors():
    spec = {
        "slos": [
            {
                "name": "avail",
                "objective": 0.995,
                "sli": {"kind": "error_ratio", "bad": ["failed"],
                        "total": ["done", "failed"]},
                "windows": [{"name": "only", "short_seconds": 60,
                             "long_seconds": 600, "factor": 2.0}],
            }
        ]
    }
    (definition,) = slo.parse_slo_spec(spec)
    assert definition.name == "avail"
    assert definition.windows[0].factor == 2.0
    with pytest.raises(ValidationError, match="slos"):
        slo.parse_slo_spec({"slos": "nope"})
    with pytest.raises(ValidationError, match="sli"):
        slo.parse_slo_spec([{"name": "x", "objective": 0.9}])
    with pytest.raises(ValidationError, match="no slos"):
        slo.parse_slo_spec([])


def test_load_slo_spec_file_errors(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        slo.load_slo_spec(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError, match="valid JSON"):
        slo.load_slo_spec(bad)


def test_default_slos_are_valid():
    names = [d.name for d in slo.default_campaign_slos()]
    assert names == ["campaign-success", "campaign-health"]
    names = [d.name for d in slo.default_serve_slos()]
    assert names == ["serve-availability", "serve-latency-p95"]


# -- histogram_good_count ---------------------------------------------------------


def test_histogram_good_count_whole_decades():
    # decade -2 covers [0.01, 0.1); decade -1 covers [0.1, 1).
    entry = {"count": 10, "buckets": {"-2": 6, "-1": 4}}
    assert slo.histogram_good_count(entry, 0.1) == pytest.approx(6.0)
    assert slo.histogram_good_count(entry, 1.0) == pytest.approx(10.0)
    assert slo.histogram_good_count(entry, 0.01) == pytest.approx(0.0)


def test_histogram_good_count_log_interpolates_partial_decade():
    entry = {"count": 10, "buckets": {"-1": 10}}
    # sqrt(0.1*1.0) ~ 0.316 is halfway through the decade in log space.
    mid = slo.histogram_good_count(entry, math.sqrt(0.1))
    assert mid == pytest.approx(5.0)
    assert slo.histogram_good_count(entry, 0.0) == 0.0
    assert slo.histogram_good_count({"count": 0, "buckets": {}}, 1.0) == 0.0


# -- burn-rate evaluation ---------------------------------------------------------


def _error_slo(objective=0.99, windows=None):
    return slo.SLODefinition(
        name="avail",
        objective=objective,
        sli=slo.SLISpec(kind="error_ratio", bad=("failed",),
                        total=("done", "failed")),
        windows=windows or (slo.BurnWindow("w", 60.0, 600.0, 2.0),),
    )


def test_healthy_series_does_not_breach():
    samples = [(float(t), {"done": t, "failed": 0}) for t in range(0, 1200, 60)]
    result = slo.evaluate_slos([_error_slo()], samples=samples, now=1140.0)
    assert not result["breach"]
    (report,) = result["slos"]
    assert report["windows"][0]["short"]["burn"] == 0.0


def test_breach_requires_both_windows_over():
    # 50% of recent events fail: burn 50x against a 1% budget in the short
    # window, but the long window has enough healthy history to stay low.
    samples = [(float(t), {"done": t, "failed": 0}) for t in range(0, 541, 60)]
    samples.append((600.0, {"done": 540 + 5, "failed": 5}))
    definition = _error_slo()
    result = slo.evaluate_slos([definition], samples=samples, now=600.0)
    window = result["slos"][0]["windows"][0]
    assert window["short"]["burn"] > definition.windows[0].factor
    assert window["long"]["burn"] < definition.windows[0].factor
    assert not window["breach"]
    # A sustained failure rate trips both windows.
    sustained = [
        (float(t), {"done": t // 2, "failed": t // 2}) for t in range(0, 601, 60)
    ]
    result = slo.evaluate_slos([definition], samples=sustained, now=600.0)
    assert result["breach"]


def test_short_series_clamps_to_available_span():
    # One sample, far younger than any window: baseline is zero, so the
    # single cumulative point is the whole window (the CI-store rule).
    samples = [(100.0, {"done": 1, "failed": 1})]
    result = slo.evaluate_slos([_error_slo()], samples=samples, now=100.0)
    window = result["slos"][0]["windows"][0]
    assert window["short"]["bad_fraction"] == pytest.approx(0.5)
    assert result["breach"]


def test_zero_budget_burns_infinite_on_any_failure():
    definition = _error_slo(objective=1.0)
    samples = [(0.0, {"done": 9, "failed": 1})]
    result = slo.evaluate_slos([definition], samples=samples, now=0.0)
    assert math.isinf(result["slos"][0]["windows"][0]["short"]["burn"])
    healthy = [(0.0, {"done": 9, "failed": 0})]
    result = slo.evaluate_slos([definition], samples=healthy, now=0.0)
    assert result["slos"][0]["windows"][0]["short"]["burn"] == 0.0


def test_empty_series_evaluates_clean():
    result = slo.evaluate_slos([_error_slo()])
    assert not result["breach"]
    assert result["slos"][0]["samples"] == 0


def test_latency_slo_uses_snapshots():
    definition = slo.SLODefinition(
        name="p95",
        objective=0.9,
        sli=slo.SLISpec(kind="latency", histogram="serve.latency",
                        threshold_seconds=1.0),
        windows=(slo.BurnWindow("w", 60.0, 600.0, 2.0),),
    )
    snapshot = {
        "histograms": {
            # decade 0 covers [1, 10): all 10 observations are over 1 s.
            "serve.latency[endpoint=margins]": {
                "count": 10, "buckets": {"0": 10}, "total": 20.0
            },
        }
    }
    result = slo.evaluate_slos(
        [definition], snapshots=[(0.0, snapshot)], now=0.0
    )
    assert result["slos"][0]["bad"] == pytest.approx(10.0)
    assert result["breach"]


def test_health_events_slo_counts_by_severity():
    definition = slo.SLODefinition(
        name="health",
        objective=0.9,
        sli=slo.SLISpec(kind="health_events", min_severity="error",
                        total=("done",)),
        windows=(slo.BurnWindow("w", 60.0, 600.0, 2.0),),
    )
    samples = [
        (0.0, {"done": 10, "health": {"info": 3, "warning": 5, "error": 2}}),
    ]
    result = slo.evaluate_slos([definition], samples=samples, now=0.0)
    assert result["slos"][0]["bad"] == pytest.approx(2.0)  # errors only


def test_breach_emits_health_event_when_obs_enabled():
    obs.enable()
    obs.reset()
    try:
        samples = [(0.0, {"done": 0, "failed": 10})]
        slo.evaluate_slos([_error_slo()], samples=samples, now=0.0)
        snap = obs.snapshot()
        events = snap.get("events") or {}
        assert any("obs.slo.burn" in key for key in events)
    finally:
        obs.disable()
        obs.reset()


def test_format_slo_report_mentions_state():
    samples = [(0.0, {"done": 0, "failed": 10})]
    result = slo.evaluate_slos([_error_slo()], samples=samples, now=0.0)
    text = slo.format_slo_report(result)
    assert "avail: objective 99%" in text
    assert "overall: BREACH" in text
    assert "no slos evaluated" in slo.format_slo_report({"slos": []})


# -- SLOMonitor -------------------------------------------------------------------


def test_monitor_rings_are_bounded_and_evaluate():
    monitor = slo.SLOMonitor([_error_slo()], max_samples=4)
    for t in range(8):
        monitor.sample({"done": t, "failed": 0}, now=float(t))
    assert len(monitor._samples) == 4
    result = monitor.evaluate(now=7.0)
    assert not result["breach"]


# -- evaluate_store and CLI gate --------------------------------------------------


def _write_stream(store, samples):
    """One worker's samples, as its telemetry log under <store>.trace/."""
    lines = [json.dumps(dict(s, kind="sample", worker="w")) for s in samples]
    trace_dir(store).mkdir()
    (trace_dir(store) / "w.jsonl").write_text("\n".join(lines) + "\n")


def test_evaluate_store_reads_stream_samples(tmp_path):
    store = tmp_path / "c.jsonl"
    store.write_text("")  # stream carries the data; store just exists
    _write_stream(store, [
        {"time": float(t), "done": t, "failed": 0} for t in range(0, 600, 60)
    ])
    result = slo.evaluate_store(store)
    assert result["store"] == str(store)
    assert not result["breach"]


def test_evaluate_store_falls_back_to_merged_status(tmp_path):
    spec = CampaignSpec.create(
        name="slo-fallback",
        space=GridSpace.of(ratio=[0.05, 0.1], separation=[4.0]),
        task="margins",
    )
    store = ResultStore.create(tmp_path / "c.jsonl", spec)
    store.append_point({"kind": "point", "id": "p0", "status": "ok"})
    store.append_point({"kind": "point", "id": "p1", "status": "failed"})
    result = slo.evaluate_store(store.path)
    success = next(
        s for s in result["slos"] if s["name"] == "campaign-success"
    )
    assert success["bad"] == pytest.approx(1.0)
    assert success["total"] == pytest.approx(2.0)
    assert result["breach"]  # 50% failure burns any 1% budget


def test_cli_slo_gate_exit_codes(tmp_path, capsys):
    healthy = tmp_path / "healthy.jsonl"
    healthy.write_text("")
    _write_stream(healthy, [{"time": 0.0, "done": 100, "failed": 0}])
    assert main(["obs", "slo", str(healthy), "--fail-on", "breach"]) == 0
    assert "overall: ok" in capsys.readouterr().out

    broken = tmp_path / "broken.jsonl"
    broken.write_text("")
    _write_stream(broken, [{"time": 0.0, "done": 1, "failed": 1}])
    assert main(["obs", "slo", str(broken)]) == 0  # report-only never gates
    capsys.readouterr()
    assert main(["obs", "slo", str(broken), "--fail-on", "breach"]) == 1
    captured = capsys.readouterr()
    assert "breach" in captured.err

    assert main(["obs", "slo", str(tmp_path / "missing.jsonl")]) == 2
    assert capsys.readouterr().err


def test_cli_slo_json_and_custom_spec(tmp_path, capsys):
    store = tmp_path / "c.jsonl"
    store.write_text("")
    _write_stream(store, [{"time": 0.0, "ok_count": 99, "err_count": 1}])
    spec = tmp_path / "slos.json"
    spec.write_text(json.dumps({
        "slos": [{
            "name": "custom",
            "objective": 0.9,
            "sli": {"kind": "error_ratio", "bad": ["err_count"],
                    "total": ["ok_count", "err_count"]},
        }]
    }))
    code = main(["obs", "slo", str(store), "--spec", str(spec), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in payload["slos"]] == ["custom"]
    assert payload["slos"][0]["bad"] == 1.0


# -- run-wide counters over several workers -----------------------------------------

_BOTH_CLAIMED = threading.Barrier(2)


def _second_batch_fails_30(params):
    """Hold each worker's first point until both hold a batch; points
    100-129 (the second batch's first 30) fail."""
    x = int(params["x"])
    if x in (0, 100):
        _BOTH_CLAIMED.wait(timeout=30)
    if 100 <= x < 130:
        raise RuntimeError("bad point")
    return {"y": float(x)}


def test_two_workers_sum_their_counters(tmp_path, capsys):
    """One worker fails 30 of its 100 points, the other none: the run is
    30 bad of 200, and burns the campaign-success budget."""
    spec = CampaignSpec.create(
        name="two-workers",
        space=ListSpace.of([{"x": float(i)} for i in range(200)]),
        task=_second_batch_fails_30,
    )
    store = tmp_path / "c.jsonl"
    ResultStore.create(store, spec).close()
    ensure_plan(lease_dir(store), spec, 100)  # as `campaign init` does
    reports = {}

    def work(name):
        reports[name] = run_worker(
            store, spec=spec, worker=name, heartbeat_interval=0.05, poll_interval=0.02
        )

    threads = [threading.Thread(target=work, args=(n,)) for n in ("w1", "w2")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert sorted(r.points_failed for r in reports.values()) == [0, 30]

    result = slo.evaluate_store(store)
    success = next(s for s in result["slos"] if s["name"] == "campaign-success")
    assert (success["bad"], success["total"]) == (30, 200)
    assert success["breach"] and result["breach"]
    stream = poll_store(store)["stream"]
    assert (stream["done"], stream["failed"], stream["workers"]) == (170, 30, 2)
    assert "from 2 worker(s)" in render(store)
    assert main(["obs", "slo", str(store), "--fail-on", "breach"]) == 1
    assert "bad 30 of 200" in capsys.readouterr().out
