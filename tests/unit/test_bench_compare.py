"""Benchmark baseline comparison: parsing, gating rules, CLI exit codes."""

import json

import pytest

from repro._errors import ValidationError
from repro.cli import main
from repro.obs.baseline import (
    compare_benchmarks,
    load_bench_lines,
    parse_tolerance,
)


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return str(path)


BASELINE = [
    {"kind": "bench_grid_eval", "scalar_seconds": 0.40, "batched_seconds": 0.060,
     "speedup": 6.7, "max_rel_err": 0.0, "points": 200, "order": 8},
    {"kind": "bench_obs_overhead", "baseline_seconds": 0.0039,
     "disabled_overhead": 0.012, "repeats": 25},
]


# -- parse_tolerance --------------------------------------------------------------


def test_parse_tolerance_accepts_percent_and_fraction():
    assert parse_tolerance("25%") == pytest.approx(0.25)
    assert parse_tolerance("0.25") == pytest.approx(0.25)
    assert parse_tolerance(0.1) == pytest.approx(0.1)


@pytest.mark.parametrize("bad", ["", "fast", "-10%", "0", 0.0, -0.5])
def test_parse_tolerance_rejects_nonpositive_and_garbage(bad):
    with pytest.raises(ValidationError):
        parse_tolerance(bad)


# -- load_bench_lines -------------------------------------------------------------


def test_load_bench_lines_last_line_wins(tmp_path):
    path = _write_jsonl(tmp_path / "runs.jsonl", [
        {"kind": "bench_grid_eval", "speedup": 5.0},
        {"kind": "bench_grid_eval", "speedup": 7.0},
    ])
    records = load_bench_lines([path])
    assert records["bench_grid_eval"]["speedup"] == 7.0


def test_load_bench_lines_missing_file_raises(tmp_path):
    with pytest.raises(ValidationError, match="missing"):
        load_bench_lines([str(tmp_path / "nope.jsonl")])


def test_load_bench_lines_bad_json_names_the_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"kind": "bench_x"}\nnot json\n')
    with pytest.raises(ValidationError, match=":2"):
        load_bench_lines([str(path)])


# -- compare_benchmarks gating ----------------------------------------------------


def _records(lines):
    return {r["kind"]: r for r in lines}


def test_identical_runs_pass():
    comparison = compare_benchmarks(_records(BASELINE), _records(BASELINE))
    assert comparison.ok
    assert comparison.regressions == []
    assert "PASS" in comparison.summary()


def test_slower_seconds_beyond_tolerance_fails():
    current = [dict(BASELINE[0], batched_seconds=0.090), BASELINE[1]]
    comparison = compare_benchmarks(
        _records(BASELINE), _records(current), tolerance=0.25
    )
    assert not comparison.ok
    (bad,) = comparison.regressions
    assert bad.metric == "batched_seconds"
    assert bad.direction == "lower"
    assert bad.change == pytest.approx(0.5)
    assert "FAIL" in comparison.summary()


def test_lower_speedup_beyond_tolerance_fails():
    current = [dict(BASELINE[0], speedup=3.0), BASELINE[1]]
    comparison = compare_benchmarks(_records(BASELINE), _records(current))
    assert [d.metric for d in comparison.regressions] == ["speedup"]


def test_degradation_within_tolerance_passes():
    current = [dict(BASELINE[0], batched_seconds=0.070, speedup=5.8), BASELINE[1]]
    assert compare_benchmarks(_records(BASELINE), _records(current)).ok


def test_noise_floor_skips_tiny_timings():
    current = [BASELINE[0], dict(BASELINE[1], baseline_seconds=0.0090)]
    comparison = compare_benchmarks(_records(BASELINE), _records(current))
    assert comparison.ok  # 2.3x slower, but both sides under 10 ms
    (delta,) = [d for d in comparison.deltas if d.metric == "baseline_seconds"]
    assert delta.skipped
    # Raising the floor to zero arms the gate.
    strict = compare_benchmarks(
        _records(BASELINE), _records(current), min_seconds=0.0
    )
    assert not strict.ok


def test_informational_metrics_never_gate():
    current = [dict(BASELINE[0], max_rel_err=9.9, points=7), BASELINE[1]]
    assert compare_benchmarks(_records(BASELINE), _records(current)).ok


def test_metric_missing_on_one_side_is_not_gated():
    # bench_campaign omits speedup when the host has fewer CPUs than workers.
    without = {k: v for k, v in BASELINE[0].items() if k != "speedup"}
    for base, current in (([without], [BASELINE[0]]), ([BASELINE[0]], [without])):
        comparison = compare_benchmarks(_records(base), _records(current))
        assert comparison.ok
        assert "speedup" not in {d.metric for d in comparison.deltas}


def test_no_overlapping_kinds_raises():
    with pytest.raises(ValidationError, match="no bench kind"):
        compare_benchmarks(
            _records(BASELINE), {"bench_other": {"kind": "bench_other"}}
        )


def test_new_and_missing_kinds_reported_not_fatal():
    current = [BASELINE[0], {"kind": "bench_new", "x_seconds": 1.0}]
    comparison = compare_benchmarks(_records(BASELINE), _records(current))
    assert comparison.missing_kinds == ["bench_obs_overhead"]
    assert comparison.new_kinds == ["bench_new"]
    assert comparison.ok


def test_new_kind_hint_names_the_baseline_file():
    current = [BASELINE[0], {"kind": "bench_new", "x_seconds": 1.0}]
    comparison = compare_benchmarks(
        _records(BASELINE), _records(current), baseline_label="BENCH_main.json"
    )
    summary = comparison.summary()
    assert "no baseline entry with kind 'bench_new' in BENCH_main.json" in summary
    assert "NOT gated" in summary
    assert "append its --json-out line to BENCH_main.json" in summary
    # The default label points at the repo's canonical baseline file.
    default = compare_benchmarks(_records(BASELINE), _records(current))
    assert "BENCH_baseline.json" in default.summary()


# -- CLI --------------------------------------------------------------------------


def test_cli_bench_compare_pass_and_report(tmp_path, capsys):
    baseline = _write_jsonl(tmp_path / "baseline.jsonl", BASELINE)
    current = _write_jsonl(tmp_path / "current.jsonl", BASELINE)
    report = tmp_path / "report.json"
    code = main([
        "bench", "compare", current, "--baseline", baseline,
        "--tolerance", "25%", "--report", str(report),
    ])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["tolerance"] == pytest.approx(0.25)
    assert all(not d["regressed"] for d in payload["deltas"])


def test_cli_bench_compare_degraded_fails(tmp_path, capsys):
    baseline = _write_jsonl(tmp_path / "baseline.jsonl", BASELINE)
    current = _write_jsonl(
        tmp_path / "current.jsonl",
        [dict(BASELINE[0], speedup=3.0), BASELINE[1]],
    )
    code = main(["bench", "compare", current, "--baseline", baseline])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_bench_compare_bad_tolerance_exits_2(tmp_path, capsys):
    baseline = _write_jsonl(tmp_path / "baseline.jsonl", BASELINE)
    code = main([
        "bench", "compare", baseline, "--baseline", baseline,
        "--tolerance", "banana",
    ])
    assert code == 2
    assert capsys.readouterr().err


def test_cli_bench_compare_accepts_multiple_current_files(tmp_path, capsys):
    baseline = _write_jsonl(tmp_path / "baseline.jsonl", BASELINE)
    a = _write_jsonl(tmp_path / "a.jsonl", [BASELINE[0]])
    b = _write_jsonl(tmp_path / "b.jsonl", [BASELINE[1]])
    assert main(["bench", "compare", a, b, "--baseline", baseline]) == 0
    capsys.readouterr()
