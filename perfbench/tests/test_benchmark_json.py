"""BENCHMARK.json: names, units and bounds the run prints."""

import json
import re
from pathlib import Path

from perfbench import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_name_is_well_formed_and_has_a_unit():
    bench = load()
    names = [w["name"] for w in bench["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in bench[group]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
            assert UNIT.fullmatch(metric["unit"]), metric["unit"]
            assert metric["better"] in ("higher", "lower")
            names.append(metric["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_workloads_and_bounds():
    bench = load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_per_layer_metrics_match_what_the_traced_run_prints():
    bench = load()
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == workloads.PER_LAYER_UNITS
    assert all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"])
