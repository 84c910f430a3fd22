"""Lease protocol unit tests: every transition under a frozen clock.

The multi-host scheduler's correctness is the sum of a handful of small
filesystem state machines — claim, renew, expire, reclaim, done,
finalize — each of which takes an explicit ``now`` precisely so these
tests never sleep.  The cross-process behaviour (SIGKILL, elastic
joins) is covered by ``tests/integration/test_distributed.py``.
"""

import json

import pytest

from repro._errors import ValidationError
from repro.campaign import CampaignSpec, GridSpace, ResultStore
from repro.campaign import lease
from repro.campaign.spec import ListSpace

TTL = 10.0


@pytest.fixture
def ldir(tmp_path):
    d = tmp_path / "r.jsonl.leases"
    d.mkdir()
    return d


class TestClaim:
    def test_first_claim_wins(self, ldir):
        assert lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        assert not lease.try_claim(ldir, "b1", "w2", TTL, now=100.0)
        assert lease.read_lease(ldir, "b1")["worker"] == "w1"

    def test_lease_records_owner_and_ttl(self, ldir):
        lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        record = lease.read_lease(ldir, "b1")
        assert record["batch"] == "b1"
        assert record["ttl"] == TTL
        assert record["time"] == 100.0

    def test_unclaimed_is_free(self, ldir):
        assert lease.read_lease(ldir, "b1") is None
        assert lease.lease_state(ldir, "b1", TTL, now=0.0) == "free"


class TestExpiry:
    def test_fresh_lease_is_leased(self, ldir):
        lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        assert lease.lease_state(ldir, "b1", TTL, now=100.0 + TTL) == "leased"

    def test_stale_lease_is_expired(self, ldir):
        lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        assert lease.lease_state(ldir, "b1", TTL, now=100.0 + TTL + 0.1) == "expired"

    def test_renew_pushes_expiry_forward(self, ldir):
        lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        assert lease.renew(ldir, "b1", "w1", TTL, now=108.0)
        assert lease.lease_state(ldir, "b1", TTL, now=112.0) == "leased"
        assert lease.lease_state(ldir, "b1", TTL, now=118.5) == "expired"

    def test_recorded_ttl_beats_callers(self, ldir):
        # The owner promised ttl=30; a watcher probing with ttl=5 must
        # not see the lease as expired before the owner's own horizon.
        lease.try_claim(ldir, "b1", "w1", 30.0, now=100.0)
        assert lease.lease_state(ldir, "b1", 5.0, now=120.0) == "leased"
        assert lease.lease_state(ldir, "b1", 5.0, now=131.0) == "expired"

    def test_unparsable_lease_is_conservatively_leased(self, ldir):
        (ldir / "b1.lease").write_text("{torn", encoding="utf-8")
        assert lease.lease_state(ldir, "b1", TTL, now=0.0) == "leased"

    def test_renew_refuses_foreign_lease(self, ldir):
        lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        assert not lease.renew(ldir, "b1", "w2", TTL, now=101.0)
        assert lease.read_lease(ldir, "b1")["worker"] == "w1"

    def test_renew_recreates_missing_own_lease(self, ldir):
        # A reclaimer's rename window leaves the file briefly absent; the
        # owner's renewal must restore it.
        lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        (ldir / "b1.lease").unlink()
        assert lease.renew(ldir, "b1", "w1", TTL, now=101.0)
        assert lease.read_lease(ldir, "b1")["worker"] == "w1"


class TestReclaim:
    def test_expired_lease_reclaims(self, ldir):
        lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        assert lease.try_reclaim(ldir, "b1", "w2", TTL, now=100.0 + TTL + 1)
        assert lease.read_lease(ldir, "b1")["worker"] == "w2"

    def test_reclaim_pre_check_skips_fresh_lease(self, ldir):
        # The cheap path: a lease that is fresh at reclaim time is left
        # completely untouched (no rename, no back-off dance).
        lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        assert not lease.try_reclaim(ldir, "b1", "w2", TTL, now=105.0)
        assert lease.read_lease(ldir, "b1")["worker"] == "w1"

    def test_reclaim_backs_off_when_owner_renews_mid_race(self, ldir, monkeypatch):
        # The narrow window: the pre-check saw an expired lease, but the
        # owner renewed before the rename landed.  The re-read of the
        # renamed copy sees the fresh timestamp; the reclaimer must back
        # off without claiming, and the owner's next renewal restores the
        # renamed-away file.
        lease.try_claim(ldir, "b1", "w1", TTL, now=200.0)  # fresh on disk
        expired = dict(lease.read_lease(ldir, "b1"), time=100.0)
        monkeypatch.setattr(lease, "read_lease", lambda *a: expired)
        assert not lease.try_reclaim(ldir, "b1", "w2", TTL, now=205.0)
        monkeypatch.undo()
        assert lease.read_lease(ldir, "b1") is None  # renamed away...
        assert lease.renew(ldir, "b1", "w1", TTL, now=205.0)  # ...owner restores
        assert lease.read_lease(ldir, "b1")["worker"] == "w1"

    def test_reclaim_of_missing_lease_fails(self, ldir):
        assert not lease.try_reclaim(ldir, "b1", "w2", TTL, now=0.0)

    def test_concurrent_reclaim_is_exactly_once(self, ldir):
        # Two reclaimers race: only the one whose rename succeeds can win;
        # the loser's rename raises and returns False.
        lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        assert lease.try_reclaim(ldir, "b1", "w2", TTL, now=200.0)
        assert not lease.try_reclaim(ldir, "b1", "w3", TTL, now=200.0)
        assert lease.read_lease(ldir, "b1")["worker"] == "w2"

    def test_release_drops_only_own_lease(self, ldir):
        lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        lease.release(ldir, "b1", "w2")
        assert lease.read_lease(ldir, "b1")["worker"] == "w1"
        lease.release(ldir, "b1", "w1")
        assert lease.read_lease(ldir, "b1") is None


class TestDoneAndFinalize:
    def test_done_marker_is_exactly_once(self, ldir):
        assert lease.mark_done(ldir, "b1", "w1")
        assert not lease.mark_done(ldir, "b1", "w2")
        assert lease.lease_state(ldir, "b1", TTL, now=0.0) == "done"
        assert lease.done_batch_ids(ldir) == {"b1"}

    def test_done_beats_lease_state(self, ldir):
        lease.try_claim(ldir, "b1", "w1", TTL, now=100.0)
        lease.mark_done(ldir, "b1", "w1")
        assert lease.lease_state(ldir, "b1", TTL, now=500.0) == "done"

    def test_finalize_election_single_winner(self, ldir):
        assert lease.try_finalize(ldir, "w1")
        assert not lease.try_finalize(ldir, "w2")
        assert not lease.try_finalize(ldir, "w1")  # not even re-entrant


class TestPlan:
    def test_partition_is_deterministic_and_ordered(self):
        points = [(f"id{i}", {"x": i}) for i in range(7)]
        batches = lease.partition_points(points, 3)
        assert [len(b["points"]) for b in batches] == [3, 3, 1]
        assert batches[0]["points"] == ["id0", "id1", "id2"]
        again = lease.partition_points(points, 3)
        assert [b["id"] for b in again] == [b["id"] for b in batches]

    def test_batch_id_depends_on_membership(self):
        assert lease.batch_id(["a", "b"]) != lease.batch_id(["a", "c"])
        assert lease.batch_id(["a", "b"]) != lease.batch_id(["b", "a"])

    def test_partition_rejects_nonpositive_batch(self):
        with pytest.raises(ValidationError):
            lease.partition_points([("a", {})], 0)

    def test_plan_frozen_by_first_writer(self, tmp_path):
        spec = CampaignSpec.create(
            name="p",
            space=ListSpace.of([{"x": 1.0}, {"x": 2.0}, {"x": 3.0}]),
            task="margins",
        )
        d = tmp_path / "r.jsonl.leases"
        first = lease.ensure_plan(d, spec, batch_size=2)
        assert [len(b["points"]) for b in first["batches"]] == [2, 1]
        # A later worker with a different batch_size gets the frozen plan.
        second = lease.ensure_plan(d, spec, batch_size=1)
        assert second == first

    def test_concurrent_first_workers_all_get_the_whole_plan(self, tmp_path):
        """Workers starting together on an unplanned store never read a
        half-written plan: none raises and all return the same plan."""
        import sys
        import threading

        spec = CampaignSpec.create(
            name="p",
            space=ListSpace.of([{"x": float(i)} for i in range(400)]),
            task="margins",
        )
        threads = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(40):
                d = tmp_path / f"r{round_}.jsonl.leases"
                barrier = threading.Barrier(threads, timeout=30.0)
                plans, errors = [], []

                def worker(batch_size):
                    barrier.wait()
                    try:
                        plans.append(lease.ensure_plan(d, spec, batch_size=batch_size))
                    except Exception as exc:  # noqa: BLE001 - the assertion below
                        errors.append(exc)

                pool = [
                    threading.Thread(target=worker, args=(i + 1,))
                    for i in range(threads)
                ]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in pool)
                assert errors == []
                assert len(plans) == threads
                assert all(plan == plans[0] for plan in plans)
                assert [p.name for p in d.iterdir()] == ["plan.json"]
        finally:
            sys.setswitchinterval(interval)

    def test_plan_rejects_foreign_json(self, tmp_path):
        d = tmp_path / "r.jsonl.leases"
        d.mkdir()
        (d / "plan.json").write_text(json.dumps({"kind": "other"}))
        spec = CampaignSpec.create(
            name="p", space=ListSpace.of([{"x": 1.0}]), task="margins"
        )
        with pytest.raises(ValidationError):
            lease.ensure_plan(d, spec, batch_size=1)


class TestRenewerThread:
    def test_renewer_counts_lost_leases(self, ldir):
        renewer = lease._LeaseRenewer(ldir, "w1", ttl=0.15)
        lease.try_claim(ldir, "b1", "w2", 300.0)  # someone else owns it
        renewer.hold("b1")
        renewer.start()
        import time

        deadline = time.monotonic() + 5.0
        while renewer.lost == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        renewer.stop()
        assert renewer.lost >= 1
        assert lease.read_lease(ldir, "b1")["worker"] == "w2"

    def test_renewer_keeps_own_lease_fresh(self, ldir):
        lease.try_claim(ldir, "b1", "w1", 0.2)
        renewer = lease._LeaseRenewer(ldir, "w1", ttl=0.2)
        renewer.hold("b1")
        renewer.start()
        import time

        time.sleep(0.6)  # several ttls: without renewal this would expire
        state = lease.lease_state(ldir, "b1", 0.2)
        renewer.stop()
        assert state == "leased"
        assert renewer.lost == 0


class TestWorkerIdentity:
    def test_worker_id_is_host_and_pid(self):
        from repro.obs.heartbeat import host_name, worker_id

        import os

        assert worker_id() == f"{host_name()}-{os.getpid()}"
        assert worker_id(pid=7, host="alpha") == "alpha-7"

    def test_beat_worker_reconstructs_v1_beats(self):
        from repro.obs.heartbeat import beat_worker

        assert beat_worker({"worker": "alpha-7"}) == "alpha-7"
        assert beat_worker({"pid": 9}) == "localhost-9"
        assert beat_worker({"pid": 9, "host": "beta"}) == "beta-9"


class TestRunWorkerEdges:
    def test_worker_requires_existing_store(self, tmp_path):
        with pytest.raises(ValidationError):
            lease.run_worker(tmp_path / "absent.jsonl", max_idle=0.1)

    def test_single_worker_completes_and_finalizes(self, tmp_path):
        spec = CampaignSpec.create(
            name="solo",
            space=GridSpace.of(ratio=[0.05, 0.1], separation=[3.0, 5.0]),
            task="design_summary",
        )
        store_path = tmp_path / "solo.jsonl"
        ResultStore.create(store_path, spec)
        report = lease.run_worker(
            store_path, batch_size=3, heartbeat_interval=None, max_idle=1.0
        )
        assert report.complete and report.finalized
        assert report.points_done == 4 and report.points_failed == 0
        store = ResultStore.open(store_path)
        assert max(store.terminal_record_counts().values()) == 1
        summaries = [
            r for r in store.records() if r.get("kind") == "summary"
        ]
        assert len(summaries) == 1
        assert summaries[0]["mode"] == "lease-worker"
        assert summaries[0]["merged"]["done"] == 4

    def test_second_worker_finds_nothing_and_leaves(self, tmp_path):
        spec = CampaignSpec.create(
            name="solo",
            space=ListSpace.of([{"ratio": 0.1, "separation": 4.0}]),
            task="design_summary",
        )
        store_path = tmp_path / "solo.jsonl"
        ResultStore.create(store_path, spec)
        first = lease.run_worker(
            store_path, heartbeat_interval=None, max_idle=1.0
        )
        assert first.complete
        second = lease.run_worker(
            store_path, heartbeat_interval=None, max_idle=0.2
        )
        assert second.complete
        assert second.points_done == 0 and second.batches_done == 0
        assert not second.finalized  # election already won
        store = ResultStore.open(store_path)
        assert max(store.terminal_record_counts().values()) == 1
