"""Crash injection: SIGKILL a lease worker at each step of the protocol.

A worker process is killed at one named step — right after a claim, in the
middle of a shard append, between its batch's records and the done marker,
inside a lease renewal, and between winning the finalize election and
writing the summary.  Each kill is injected by monkeypatching the lease or
store function inside the child process, so nothing in the library knows
about the harness.  A survivor (or a resume) then finishes the map, and the
store must hold exactly one terminal record per point: zero lost, zero
duplicated.

The victim runs on this host, so the survivor finds its lease expired at
once (the victim's shard lock died with it; the first test pins that rule
on a frozen clock); the short ``lease_ttl`` only makes the renewer fire
early enough to be killed inside a renewal.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, ListSpace, ResultStore, resume_campaign
from repro.campaign import lease
from repro.campaign.store import shard_dir

pytestmark = pytest.mark.campaign

TTL = 1.0
BATCH = 3
POINTS = 12

_VICTIM = """
import os, signal, sys
from repro.campaign import lease
from repro.campaign.store import ResultStore, _encode

store_path, step, batch, ttl = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])


def die():
    os.kill(os.getpid(), signal.SIGKILL)


def after(name):
    real = getattr(lease, name)

    def wrapper(*args, **kwargs):
        won = real(*args, **kwargs)
        if won:
            die()
        return won

    setattr(lease, name, wrapper)


if step == "claim":
    after("try_claim")
elif step == "append":
    def torn_append(self, record):
        line = _encode(record)
        with open(self.path, "a") as handle:
            handle.write(line[: len(line) // 2])
            handle.flush()
        die()

    ResultStore.append_point = torn_append
elif step == "done":
    lease.mark_done = lambda *args, **kwargs: die()
elif step == "renew":
    lease.renew = lambda *args, **kwargs: die()
elif step == "finalize":
    after("try_finalize")
lease.run_worker(store_path, batch_size=batch, lease_ttl=ttl, heartbeat_interval=None)
"""


def _spec():
    return CampaignSpec.create(
        name="crash",
        space=ListSpace.of(
            [{"ratio": 0.02 + 0.02 * i, "separation": 4.0} for i in range(POINTS)]
        ),
        task="design_summary",
        defaults={"min_seconds": 0.1},
    )


def _kill_at(step: str, store: Path) -> None:
    """Run one victim worker until the injected SIGKILL lands."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    victim = subprocess.run(
        [sys.executable, "-c", _VICTIM, str(store), step, str(BATCH), str(TTL)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert victim.returncode == -signal.SIGKILL, victim.stderr


def _assert_exactly_once(store: Path) -> None:
    reader = ResultStore.open(store)
    counts = reader.terminal_record_counts()
    assert len(counts) == POINTS, "lost points"
    assert set(counts.values()) == {1}, {k: v for k, v in counts.items() if v != 1}
    assert reader.merged_status()["complete"]


def _summaries(store: Path) -> list:
    return [r for r in ResultStore.open(store).records() if r["kind"] == "summary"]


def test_same_host_lease_expires_when_its_owner_lock_is_free(tmp_path):
    store = tmp_path / "r.jsonl"
    ldir = lease.lease_dir(store)
    ldir.mkdir()
    shard_dir(store).mkdir()
    shard = shard_dir(store) / "w1.jsonl"
    shard.write_text("")
    lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
    assert lease.lease_state(ldir, "b1", TTL, now=100.0) == "expired"
    owner = lease._hold_shard_lock(shard)
    try:
        assert lease.lease_state(ldir, "b1", TTL, now=100.0) == "leased"
        assert not lease.try_reclaim(ldir, "b1", "w2", TTL, now=100.0)
    finally:
        os.close(owner)
    # Locks are not trusted across hosts: there the ttl alone decides.
    record = dict(lease.read_lease(ldir, "b1"), host="elsewhere")
    (ldir / "b1.lease").write_text(json.dumps(record))
    assert lease.lease_state(ldir, "b1", TTL, now=100.0) == "leased"
    assert lease.lease_state(ldir, "b1", TTL, now=100.0 + TTL + 0.1) == "expired"


@pytest.mark.parametrize(
    "step, reclaims",
    # A batch whose records all landed needs no reclaim: nobody computes it
    # again, it just never gets its done marker.
    [("claim", 1), ("append", 1), ("done", 0), ("renew", 1)],
)
def test_survivor_finishes_after_kill_holding_a_lease(step, reclaims, tmp_path):
    store = tmp_path / "r.jsonl"
    ResultStore.create(store, _spec())
    _kill_at(step, store)
    assert not ResultStore.open(store).merged_status()["complete"]

    survivor = lease.run_worker(
        store, batch_size=BATCH, lease_ttl=TTL, heartbeat_interval=None, max_idle=10.0
    )
    assert survivor.complete and survivor.finalized
    assert survivor.reclaims == reclaims
    _assert_exactly_once(store)
    assert len(_summaries(store)) == 1


def test_kill_after_winning_the_finalize_election(tmp_path):
    store = tmp_path / "r.jsonl"
    ResultStore.create(store, _spec())
    _kill_at("finalize", store)
    _assert_exactly_once(store)  # every record landed before the election
    assert _summaries(store) == []

    # A joining worker finds the map complete and the election already won:
    # nothing to compute, and no summary either.
    survivor = lease.run_worker(
        store, lease_ttl=TTL, heartbeat_interval=None, max_idle=1.0
    )
    assert survivor.complete and not survivor.finalized
    assert survivor.points_done == 0
    assert _summaries(store) == []

    # A resume starts a new run with its own election, and writes the summary.
    result = resume_campaign(store, workers=2, heartbeat_interval=None)
    assert result.telemetry.skipped == POINTS and result.telemetry.processed == 0
    _assert_exactly_once(store)
    assert len(_summaries(store)) == 1
