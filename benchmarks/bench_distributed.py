"""Distributed campaign throughput — lease-worker scaling.

The same campaign run by 1 vs N elastic lease workers sharing one store.
The workers here are in-process threads (each with an explicit worker id,
so they get private shards exactly like separate hosts would) over a
sleep-bound task, so the ratio isolates what the bench is about: the
*coordination cost* of the lease protocol — claims, renewals, done
markers, merged-record refreshes — not process startup or GIL contention.
N workers over ideally parallel work should approach Nx; the gate catches
the protocol getting chattier.  (Bitwise identity of ``--workers 2``
records with the serial path is tested by
``tests/property/test_prop_schedulers.py``.)

``main()`` prints a human summary plus one machine-readable JSON line
(``kind: "bench_distributed"``) for harness scraping.  Run with
``PYTHONPATH=src python benchmarks/bench_distributed.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.campaign import CampaignSpec, GridSpace, ResultStore
from repro.campaign.lease import run_worker

WORKERS = 4
POINTS = 120
MIN_SECONDS = 0.02


@dataclass(frozen=True)
class DistributedBenchResult:
    """Lease-worker scaling."""

    points: int
    workers: int
    one_worker_seconds: float
    multi_worker_seconds: float
    duplicates: int

    @property
    def worker_speedup(self) -> float:
        return self.one_worker_seconds / self.multi_worker_seconds

    def summary(self) -> str:
        return (
            f"lease workers ({self.points} points): "
            f"1 worker {self.one_worker_seconds:.2f} s, "
            f"{self.workers} workers {self.multi_worker_seconds:.2f} s "
            f"-> {self.worker_speedup:.2f}x, {self.duplicates} duplicate(s)"
        )

    def json_line(self) -> str:
        return json.dumps(
            {
                "kind": "bench_distributed",
                "points": self.points,
                "workers": self.workers,
                "one_worker_seconds": round(self.one_worker_seconds, 4),
                "multi_worker_seconds": round(self.multi_worker_seconds, 4),
                "worker_speedup": round(self.worker_speedup, 3),
                "duplicates": self.duplicates,
            },
            sort_keys=True,
        )


def _campaign_spec(points: int, min_seconds: float) -> CampaignSpec:
    ratios = [round(0.02 + 0.002 * i, 4) for i in range(points // 4)]
    return CampaignSpec.create(
        name="bench-distributed",
        space=GridSpace.of(ratio=ratios, separation=[3.0, 4.0, 5.0, 6.0]),
        task="design_summary",
        defaults={"min_seconds": min_seconds},
    )


def _run_workers(spec: CampaignSpec, n: int, tmp: Path) -> tuple[float, int]:
    """Wall time for n threaded lease workers to cover the campaign."""
    store_path = tmp / f"bench-{n}.jsonl"
    ResultStore.create(store_path, spec)
    reports = []

    def entry(i: int) -> None:
        reports.append(
            run_worker(
                store_path,
                worker=f"bench-w{i}",
                batch_size=8,
                heartbeat_interval=None,
                max_idle=5.0,
                # Tight re-check cadence: the default (ttl/5) is tuned for
                # long-lived cluster workers, not a sub-second bench where
                # the tail worker would idle a full poll period.
                poll_interval=0.02,
            )
        )

    start = time.perf_counter()
    threads = [
        threading.Thread(target=entry, args=(i,), daemon=True)
        for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start

    store = ResultStore.open(store_path)
    records = store.merged_point_records()
    assert len(records) == len(spec), "lease workers lost points"
    assert all(r["status"] == "ok" for r in records)
    counts = store.terminal_record_counts()
    duplicates = sum(v - 1 for v in counts.values())
    assert duplicates == 0, f"{duplicates} duplicate terminal record(s)"
    return elapsed, sum(r.duplicates for r in reports)


def measure(
    points: int = POINTS,
    workers: int = WORKERS,
    min_seconds: float = MIN_SECONDS,
) -> DistributedBenchResult:
    spec = _campaign_spec(points, min_seconds)
    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        t_one, _ = _run_workers(spec, 1, tmp)
        t_multi, duplicates = _run_workers(spec, workers, tmp)
    return DistributedBenchResult(
        points=len(spec),
        workers=workers,
        one_worker_seconds=t_one,
        multi_worker_seconds=t_multi,
        duplicates=duplicates,
    )


# -- pytest entry points ---------------------------------------------------------


def test_workers_scale():
    """No duplicates; the scaling target on the full-size run."""
    result = measure()
    assert result.duplicates == 0, result.summary()
    assert result.worker_speedup >= 2.0, result.summary()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI-sized run (40 points, 2 workers) — "
        "exercises the full protocol without asserting scaling targets",
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
        result = measure(points=40, workers=2, min_seconds=0.02)
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
