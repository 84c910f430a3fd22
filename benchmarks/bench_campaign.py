"""Serial vs N lease workers — the ``repro.campaign`` engine bench.

Runs a 220-point stability-map campaign (the ``stability_cell`` task over an
11 x 20 separation/ratio grid) twice through :func:`run_campaign`: once
serial, once on 4 lease workers on this host (``workers=4``: the caller
plus three forked helpers, ``batch_size`` points per lease; 0 = the
executor's automatic size).  Asserts the two runs produce *identical*
results point by point — both paths run the same ``_run_point`` — and
reports the wall-clock speedup.

The speedup is reported, and asserted (>= 2.5x with 4 workers), only when
the machine has at least as many CPUs as workers: N workers on fewer cores
measure the scheduler, not the engine, and a number that cannot be reached
would make the gate useless.  Result *identity* is asserted on every run.

``main()`` prints a human summary plus one machine-readable JSON line
(``kind: "bench_campaign"``) for harness scraping, like
``bench_grid_eval.py``.  Its ``pool_seconds`` and ``pool_mode`` keys keep
their names (they time the N-worker run) so ``repro bench compare`` keeps
gating against earlier baselines; ``speedup`` is absent when it is not
reported, which the comparison treats as not gated.  Run with
``PYTHONPATH=src python benchmarks/bench_campaign.py`` or through pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.campaign import CampaignSpec, GridSpace, run_campaign

SEPARATIONS = tuple(np.linspace(2.5, 7.5, 11))
RATIOS = tuple(np.linspace(0.02, 0.3, 20))
WORKERS = 4


def stability_map_spec(
    separations=SEPARATIONS, ratios=RATIOS, points: int = 400
) -> CampaignSpec:
    """A stability-map campaign: one ``stability_cell`` per grid point."""
    return CampaignSpec.create(
        name="bench-stability-map",
        space=GridSpace.of(
            separation=[float(v) for v in separations],
            ratio=[float(v) for v in ratios],
        ),
        task="stability_cell",
        defaults={"points": points},
    )


@dataclass(frozen=True)
class CampaignBenchResult:
    """Timing comparison of a serial run and a run of N lease workers."""

    points: int
    workers: int
    batch_size: int
    cpus: int
    serial_seconds: float
    workers_seconds: float
    mode: str  # telemetry mode of the N-worker run
    identical: bool

    @property
    def speedup(self) -> float | None:
        """Serial over N-worker wall time; ``None`` with fewer CPUs than workers."""
        if self.cpus < self.workers:
            return None
        return self.serial_seconds / self.workers_seconds

    def summary(self) -> str:
        batch = "auto" if self.batch_size == 0 else str(self.batch_size)
        speedup = (
            f"{self.speedup:.2f}x"
            if self.speedup is not None
            else "speedup not reported"
        )
        return (
            f"campaign ({self.points} points): serial {self.serial_seconds:.2f} s, "
            f"{self.workers} {self.mode} workers (batch {batch}) "
            f"{self.workers_seconds:.2f} s "
            f"-> {speedup} on {self.cpus} cpu(s), "
            f"identical={self.identical}"
        )

    def json_line(self) -> str:
        line = {
            "kind": "bench_campaign",
            "points": self.points,
            "workers": self.workers,
            "batch_size": self.batch_size,
            "cpus": self.cpus,
            "serial_seconds": round(self.serial_seconds, 4),
            "pool_seconds": round(self.workers_seconds, 4),
            "pool_mode": self.mode,
            "identical": self.identical,
        }
        if self.speedup is not None:
            line["speedup"] = round(self.speedup, 3)
        return json.dumps(line, sort_keys=True)


def _metrics_equal(a, b) -> bool:
    """Bitwise metric equality, except NaN == NaN (unstable cells are NaN)."""
    if a is None or b is None:
        return a is b
    if a.keys() != b.keys():
        return False
    return all(
        va == b[k] or (np.isnan(va) and np.isnan(b[k])) for k, va in a.items()
    )


def measure(
    separations=SEPARATIONS,
    ratios=RATIOS,
    workers: int = WORKERS,
    points: int = 400,
    batch_size: int = 0,
) -> CampaignBenchResult:
    """Run the campaign serially, then on ``workers`` lease workers; cross-check
    record identity.

    ``batch_size`` is points per lease batch (0 = the executor's
    automatic size — roughly four batches per worker).
    """
    spec = stability_map_spec(separations, ratios, points)
    # Untimed: first-use imports (scipy) would otherwise be charged to the
    # serial run, and forked workers inherit them.
    run_campaign(stability_map_spec(separations[:1], ratios[:1], points))

    start = time.perf_counter()
    serial = run_campaign(spec, workers=1)
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_campaign(spec, workers=workers, batch_size=batch_size)
    t_workers = time.perf_counter() - start

    identical = [r["id"] for r in serial.records] == [
        r["id"] for r in parallel.records
    ] and all(
        a["status"] == b["status"]
        and _metrics_equal(a.get("metrics"), b.get("metrics"))
        for a, b in zip(serial.records, parallel.records)
    )
    return CampaignBenchResult(
        points=len(spec),
        workers=workers,
        batch_size=batch_size,
        cpus=os.cpu_count() or 1,
        serial_seconds=t_serial,
        workers_seconds=t_workers,
        mode=parallel.telemetry.mode,
        identical=identical,
    )


# -- pytest entry points ---------------------------------------------------------


def test_lease_workers_match_serial_and_speed_up():
    """Identity always; the >= 2.5x target where each worker has a CPU."""
    result = measure()
    assert result.points >= 200
    assert result.identical, result.summary()
    if result.speedup is not None:
        assert result.speedup >= 2.5, result.summary()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI-sized run (12 points, 2 workers) — exercises both "
        "execution paths without asserting the full-size speedup",
    )
    parser.add_argument(
        "--json-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="append the machine-readable JSON result line to FILE",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        result = measure(
            separations=tuple(np.linspace(3.0, 6.0, 3)),
            ratios=tuple(np.linspace(0.05, 0.25, 4)),
            workers=2,
            points=100,
        )
    else:
        result = measure()
    print(result.summary())
    print(result.json_line())
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        with args.json_out.open("a") as fh:
            fh.write(result.json_line() + "\n")


if __name__ == "__main__":
    main()
