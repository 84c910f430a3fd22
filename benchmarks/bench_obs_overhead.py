"""Observability overhead — one bench of the telemetry log and its switches.

Pins four promises of :mod:`repro.obs` to numbers, each an asserted bound:

* **free when off** — a cold ``dense_grid`` sweep of the brute-force
  closed-loop operator with obs disabled (the public method, i.e. the code
  every caller runs by default) against the pre-instrumentation body
  inlined (validate, then ``grid_cache.fetch``): **< 2%**.  An
  enabled-path timing is reported for context but not asserted.
* **live telemetry** — a serial campaign whose worker appends a sample to
  its telemetry log every 0.2 s, against the same campaign with the
  sampler off (``heartbeat_interval=None``): **< 5%**.
* **trace** — the campaign with a root trace context, so every point
  appends a span event to the log: **< 25%** for these fast (~ms) points;
  real campaign points are slower, so their relative cost is lower still.
* **profile** — the campaign with the 97 Hz sampling profiler, its deltas
  flushed into the log (the ``--profile`` path): **< 5%**.

The campaign variants all run with obs enabled, so each delta isolates
what its switch adds; they are timed interleaved, best-of-``repeats``, so
clock drift and scheduler outliers hit every variant alike.  An
out-of-bound measurement is re-taken up to ``ATTEMPTS`` times before the
bench fails: a busy runner fails one attempt, a real regression fails
every one.

Run with ``PYTHONPATH=src python benchmarks/bench_obs_overhead.py`` (or
through pytest); ``--smoke`` shrinks the sizes for CI, ``--json-out FILE``
appends the machine-readable result line (``kind: "bench_obs_overhead"``).
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro._validation import check_order
from repro.campaign import CampaignSpec, ListSpace, run_campaign
from repro.core.grid import FrequencyGrid, as_s_grid
from repro.core.memo import grid_cache
from repro.core.operators import HarmonicOperator
from repro.obs import merge_profiles
from repro.obs import spans as obs
from repro.obs import trace as obs_trace

try:  # package import under pytest, flat import as a script
    from benchmarks.bench_grid_eval import closed_loop_operator
except ImportError:
    from bench_grid_eval import closed_loop_operator

POINTS = 200
ORDER = 8
REPEATS = 25
CAMPAIGN_POINTS = 40
CAMPAIGN_REPEATS = 5
ATTEMPTS = 3  # re-measure before declaring a regression (noise gate)
SAMPLE_INTERVAL = 0.2

#: The asserted bounds, by overhead.
BOUNDS = {
    "disabled_overhead": 0.02,  # obs guard, disabled, vs no guard at all
    "live_overhead": 0.05,  # the sampler writing the log vs no sampler
    "trace_overhead": 0.25,  # one span event per ~ms point
    "profile_overhead": 0.05,  # 97 Hz sampling, deltas into the log
}


def baseline_eval(op: HarmonicOperator, s, order: int) -> np.ndarray:
    """The pre-instrumentation ``dense_grid`` body: validate + fetch."""
    s_arr = as_s_grid("s", s)
    order = check_order("order", order, minimum=0)
    return grid_cache.fetch(op, s_arr, order, op._dense_grid)


def _best_cold(fn, repeats: int) -> float:
    """Best-of-``repeats`` cold timing; cache cleared outside the clock."""
    best = float("inf")
    for _ in range(repeats):
        grid_cache.clear()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _campaign_task(params):
    """A realistically numeric (but quick) campaign point."""
    op, omega0 = _campaign_task.op
    s_arr = FrequencyGrid.baseband(omega0 * params["scale"], points=120).s
    grid = op.dense_grid(s_arr, 6)
    return {"peak": float(np.abs(grid).max())}


_campaign_task.op = None  # populated lazily so import stays cheap


def _campaign_spec(points: int) -> CampaignSpec:
    if _campaign_task.op is None:
        _campaign_task.op = closed_loop_operator()
    return CampaignSpec.create(
        name="bench-obs",
        space=ListSpace.of([{"scale": 1.0 + 0.01 * i} for i in range(points)]),
        task=_campaign_task,
    )


#: Campaign variants: run_campaign keyword arguments on top of obs enabled.
VARIANTS = {
    "obs": {},
    "live": {"heartbeat_interval": SAMPLE_INTERVAL},
    "traced": {"trace": "new"},
    "profiled": {"profile": True},
}


def _timed_campaign(spec: CampaignSpec, root: Path, variant: str) -> float:
    kwargs = dict(VARIANTS[variant])
    if kwargs.get("trace") == "new":
        kwargs["trace"] = obs_trace.new_context()
    kwargs.setdefault("heartbeat_interval", None)
    grid_cache.clear()
    start = time.perf_counter()
    run_campaign(spec, root / "run.jsonl", **kwargs)
    return time.perf_counter() - start


@dataclass(frozen=True)
class ObsOverheadResult:
    """Grid-eval timings with instrumentation off/absent/on, and campaign
    timings per telemetry switch."""

    points: int
    order: int
    repeats: int
    baseline_seconds: float
    disabled_seconds: float
    enabled_seconds: float
    campaign_points: int
    campaign_repeats: int
    campaign_obs_seconds: float
    campaign_live_seconds: float
    campaign_traced_seconds: float
    campaign_profiled_seconds: float
    events: int  # span events in the last traced run's log
    samples: int  # profiler samples in the last profiled run's log

    @property
    def disabled_overhead(self) -> float:
        return self.disabled_seconds / self.baseline_seconds - 1.0

    @property
    def enabled_overhead(self) -> float:
        return self.enabled_seconds / self.baseline_seconds - 1.0

    def _campaign_overhead(self, seconds: float) -> float:
        return seconds / self.campaign_obs_seconds - 1.0

    @property
    def live_overhead(self) -> float:
        return self._campaign_overhead(self.campaign_live_seconds)

    @property
    def trace_overhead(self) -> float:
        return self._campaign_overhead(self.campaign_traced_seconds)

    @property
    def profile_overhead(self) -> float:
        return self._campaign_overhead(self.campaign_profiled_seconds)

    def overheads(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in (*BOUNDS, "enabled_overhead")}

    def breaches(self) -> list[str]:
        """The overheads at or over their bound."""
        return [name for name, bound in BOUNDS.items() if getattr(self, name) >= bound]

    def summary(self) -> str:
        parts = ", ".join(
            f"{name.removesuffix('_overhead')} {100 * value:+.2f}%"
            for name, value in self.overheads().items()
        )
        return (
            f"obs overhead (grid {self.points} points, order {self.order}, best of "
            f"{self.repeats}; campaign {self.campaign_points} points, best of "
            f"{self.campaign_repeats}, obs-only {self.campaign_obs_seconds * 1e3:.1f} ms): "
            f"{parts}; {self.events} span events, {self.samples} profiler samples"
        )

    def json_line(self) -> str:
        fields = {
            key: round(value, 6) if isinstance(value, float) else value
            for key, value in asdict(self).items()
        }
        fields.update({k: round(v, 4) for k, v in self.overheads().items()})
        fields["kind"] = "bench_obs_overhead"
        return json.dumps(fields, sort_keys=True)


def measure(
    points: int = POINTS,
    order: int = ORDER,
    repeats: int = REPEATS,
    campaign_points: int = CAMPAIGN_POINTS,
    campaign_repeats: int = CAMPAIGN_REPEATS,
) -> ObsOverheadResult:
    """One measurement of every overhead."""
    op, omega0 = closed_loop_operator()
    s_arr = FrequencyGrid.baseband(omega0, points=points).s
    spec = _campaign_spec(campaign_points)
    best = dict.fromkeys(VARIANTS, float("inf"))
    events = samples = 0
    was_enabled = obs.enabled()
    try:
        obs.disable()
        t_baseline = t_disabled = float("inf")
        for _ in range(repeats):
            t_baseline = min(
                t_baseline, _best_cold(lambda: baseline_eval(op, s_arr, order), 1)
            )
            t_disabled = min(
                t_disabled, _best_cold(lambda: op.dense_grid(s_arr, order), 1)
            )
        obs.enable()
        t_enabled = _best_cold(lambda: op.dense_grid(s_arr, order), repeats)
        for _ in range(campaign_repeats):
            for variant in VARIANTS:
                with tempfile.TemporaryDirectory() as tmp:
                    root = Path(tmp)
                    best[variant] = min(
                        best[variant], _timed_campaign(spec, root, variant)
                    )
                    log = obs_trace.LogReader(root / "run.jsonl").refresh()
                    if variant == "traced":
                        events = len(log.spans())
                    elif variant == "profiled":
                        samples = merge_profiles(log.profiles())["samples"]
    finally:
        (obs.enable if was_enabled else obs.disable)()
        obs.reset()
        grid_cache.clear()
    return ObsOverheadResult(
        points=points,
        order=order,
        repeats=repeats,
        baseline_seconds=t_baseline,
        disabled_seconds=t_disabled,
        enabled_seconds=t_enabled,
        campaign_points=campaign_points,
        campaign_repeats=campaign_repeats,
        campaign_obs_seconds=best["obs"],
        campaign_live_seconds=best["live"],
        campaign_traced_seconds=best["traced"],
        campaign_profiled_seconds=best["profiled"],
        events=events,
        samples=samples,
    )


def measure_gated(attempts: int = ATTEMPTS, **sizes) -> ObsOverheadResult:
    """Measure up to ``attempts`` times; return the first in-bound result.

    A bool read, a sample per 0.2 s, a JSONL line per ~ms point or a 97 Hz
    sampler cannot cost their bounds on numeric work — an out-of-bound
    sample means the machine was busy.  The last result is returned if none
    passes.
    """
    result = measure(**sizes)
    for _ in range(attempts - 1):
        if not result.breaches():
            break
        result = measure(**sizes)
    return result


SMOKE = dict(points=40, order=4, repeats=10, campaign_points=20, campaign_repeats=3)


# -- pytest entry points ---------------------------------------------------------


def test_overheads_in_bounds():
    """Every switch stays under its bound, and each variant did its work."""
    result = measure_gated(**SMOKE)
    assert not result.breaches(), result.summary()
    assert result.events >= SMOKE["campaign_points"], result.summary()
    assert result.samples > 0, "the profiled run must actually sample"


def test_untraced_campaign_records_no_events():
    """Without a context, a campaign's log holds samples but no span events."""
    spec = _campaign_spec(4)
    was_enabled = obs.enabled()
    try:
        obs.disable()
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "run.jsonl"
            run_campaign(spec, store)
            log = obs_trace.LogReader(store).refresh()
            assert log.spans() == []
            assert log.samples()
    finally:
        (obs.enable if was_enabled else obs.disable)()
        obs.reset()
        grid_cache.clear()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (grid 40 points at order 4, campaigns of 20 points); "
        "every bound is still asserted",
    )
    parser.add_argument(
        "--json-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="append the machine-readable JSON result line to FILE",
    )
    args = parser.parse_args(argv)
    result = measure_gated(**(SMOKE if args.smoke else {}))
    print(result.summary())
    print(result.json_line())
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        with args.json_out.open("a") as fh:
            fh.write(result.json_line() + "\n")
    if result.breaches():
        raise SystemExit(
            "overhead over its bound: "
            + ", ".join(
                f"{name} {100 * getattr(result, name):.2f}% >= {100 * BOUNDS[name]:.0f}%"
                for name in result.breaches()
            )
        )


if __name__ == "__main__":
    main()
