"""Distributed smoke: elastic CLI workers, a SIGKILL, and zero lost points.

This is the acceptance scenario for the multi-host lease scheduler, run
the way a cluster would run it: independent ``repro campaign worker``
subprocesses against one shared store.  One worker is SIGKILLed while it
holds a lease mid-batch; the survivors must reclaim the orphaned batch
after its ttl, finish the campaign with **zero lost points and zero
duplicate terminal records**, and elect exactly one summary writer.

Kept under the ``campaign`` marker (subprocess startup dominates the
runtime); the lease protocol's state machine itself is unit-tested with
a frozen clock in ``tests/unit/test_lease.py``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.store import ResultStore
from repro.obs.trace import LogReader

pytestmark = pytest.mark.campaign

POINTS = 200
BATCH = 10
LEASE_TTL = 2.0


def _spawn_worker(store, env, extra=()):
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "campaign",
            "worker",
            str(store),
            "--quiet",
            "--max-idle",
            "10",
            "--lease-ttl",
            str(LEASE_TTL),
            "--stream",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.fixture
def campaign_dir(tmp_path):
    spec = {
        "name": "distributed-smoke",
        "task": "design_summary",
        "defaults": {"min_seconds": 0.05},
        "space": {
            "kind": "grid",
            "axes": {
                "ratio": [round(0.01 * i, 2) for i in range(1, 21)],
                "separation": [3.0, 4.0, 5.0, 6.0, 7.0, 3.5, 4.5, 5.5, 6.5, 7.5],
            },
        },
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    return tmp_path


def test_three_workers_survive_a_sigkill(campaign_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    store = campaign_dir / "r.jsonl"
    init = subprocess.run(
        [
            sys.executable, "-m", "repro", "campaign", "init",
            str(campaign_dir / "spec.json"), "--out", str(store),
            "--batch-size", str(BATCH),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert init.returncode == 0, init.stdout + init.stderr
    assert f"{POINTS} point(s)" in init.stdout

    workers = [_spawn_worker(store, env) for _ in range(3)]
    victim = workers[0]
    # Kill only once the victim is provably working (its shard exists);
    # a worker killed during interpreter startup proves nothing.
    shard = store.parent / "r.jsonl.shards" / f"*-{victim.pid}.jsonl"
    deadline = time.monotonic() + 90
    while not list(shard.parent.glob(shard.name)):
        assert time.monotonic() < deadline, "victim never started working"
        assert victim.poll() is None, "victim exited before being killed"
        time.sleep(0.05)
    time.sleep(0.3)  # well inside its first leased batch
    victim.send_signal(signal.SIGKILL)

    outputs = {}
    for proc in workers:
        out, _err = proc.communicate(timeout=180)
        outputs[proc.pid] = out
    assert victim.returncode == -signal.SIGKILL
    survivors = workers[1:]
    assert all(p.returncode == 0 for p in survivors), outputs

    result_store = ResultStore.open(store)
    records = result_store.merged_point_records()
    assert len(records) == POINTS, "lost points after SIGKILL"
    assert all(r["status"] == "ok" for r in records)
    # First-terminal-record-wins dedup: never two records for one id.
    counts = result_store.terminal_record_counts()
    assert max(counts.values()) == 1, {
        k: v for k, v in counts.items() if v > 1
    }
    # The orphaned lease was reclaimed by a survivor, and they logged it.
    assert "reclaimed expired lease" in "".join(
        outputs[p.pid] for p in survivors
    ), outputs

    # Exactly one summary writer won the finalize election.
    summaries = [
        r for r in result_store.records() if r.get("kind") == "summary"
    ]
    assert len(summaries) == 1
    assert summaries[0]["mode"] == "lease-worker"
    assert summaries[0]["merged"]["done"] == POINTS
    finalized = sum(
        "wrote final summary" in outputs[p.pid] for p in survivors
    )
    assert finalized == 1

    # Every worker logs its own samples under <store>.trace/.
    samples = LogReader(store).refresh().samples()
    stream_workers = {s.get("worker") for s in samples if s.get("worker")}
    assert len(stream_workers) >= 2

    # Status + watch read the merged multi-worker state without error.
    status = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "status", str(store)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert status.returncode == 0, status.stdout + status.stderr
    assert "0 pending" in status.stdout
    assert "worker shard(s)" in status.stdout
    watch = subprocess.run(
        [
            sys.executable, "-m", "repro", "campaign", "watch",
            str(store), "--once",
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert watch.returncode == 0
    assert "COMPLETE" in watch.stdout
    assert "leases:" in watch.stdout


def test_late_joiner_finds_campaign_complete(campaign_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    store = campaign_dir / "r.jsonl"
    small_spec = {
        "name": "tiny",
        "task": "design_summary",
        "space": {
            "kind": "grid",
            "axes": {"ratio": [0.05, 0.1], "separation": [4.0]},
        },
    }
    (campaign_dir / "tiny.json").write_text(json.dumps(small_spec))
    subprocess.run(
        [
            sys.executable, "-m", "repro", "campaign", "init",
            str(campaign_dir / "tiny.json"), "--out", str(store),
        ],
        env=env,
        check=True,
        capture_output=True,
    )
    first = _spawn_worker(store, env)
    out, _ = first.communicate(timeout=120)
    assert first.returncode == 0, out
    late = _spawn_worker(store, env, extra=("--max-idle", "0.5"))
    out_late, _ = late.communicate(timeout=120)
    assert late.returncode == 0, out_late
    assert "0 batch(es)" in out_late  # nothing left to claim
    counts = ResultStore.open(store).terminal_record_counts()
    assert max(counts.values()) == 1
