"""Sharded serve cache: addressing, byte budgets, payload wrapping, stats."""

import numpy as np

from repro.serve.cache import Payload, ShardedGridCache

OMEGA = np.linspace(0.1, 1.0, 8)


class TestSharding:
    def test_shard_index_is_deterministic_and_in_range(self):
        cache = ShardedGridCache(shards=4)
        for fp in ("00ab12cd", "ffab12cd", "1234abcd", "deadbeef"):
            idx = cache.shard_index(fp)
            assert idx == cache.shard_index(fp)
            assert 0 <= idx < 4

    def test_non_hex_fingerprints_still_shard(self):
        cache = ShardedGridCache(shards=3)
        assert 0 <= cache.shard_index("not-hex!") < 3

    def test_same_design_lands_on_one_shard(self):
        """All variants of one fingerprint (grids, flavors) share a shard."""
        cache = ShardedGridCache(shards=8)
        fp = "0a1b2c3d4e5f0011"
        cache.store(fp, OMEGA, np.ones(8), flavor=("response",))
        cache.store(fp, None, {"pm": 60.0}, flavor=("margins",))
        occupied = [i for i, n in enumerate(cache.stats()["entries_per_shard"]) if n]
        assert occupied == [cache.shard_index(fp)]

    def test_byte_budget_splits_across_shards(self):
        cache = ShardedGridCache(shards=4, max_bytes=4000)
        assert cache.stats()["max_bytes"] == 1000


class TestLookupStore:
    def test_array_round_trip_read_only(self):
        cache = ShardedGridCache()
        value = np.linspace(0, 1, 8)
        cache.store("fp1", OMEGA, value)
        out = cache.lookup("fp1", OMEGA, flavor=None)
        assert np.array_equal(out, value)
        assert not out.flags.writeable

    def test_dict_payload_unwraps(self):
        cache = ShardedGridCache()
        cache.store("fp2", None, {"phase_margin": 55.5})
        assert cache.lookup("fp2", None) == {"phase_margin": 55.5}

    def test_flavor_separates_endpoints(self):
        cache = ShardedGridCache()
        cache.store("fp3", None, {"a": 1.0}, flavor=("margins",))
        assert cache.lookup("fp3", None, flavor=("noise",)) is None
        assert cache.lookup("fp3", None, flavor=("margins",)) == {"a": 1.0}

    def test_grid_separates_entries(self):
        cache = ShardedGridCache()
        cache.store("fp4", OMEGA, np.ones(8))
        assert cache.lookup("fp4", 2 * OMEGA) is None

    def test_fetch_computes_once(self):
        cache = ShardedGridCache()
        calls = []

        def compute():
            calls.append(1)
            return {"x": 1.0}

        assert cache.fetch("fp5", None, compute) == {"x": 1.0}
        assert cache.fetch("fp5", None, compute) == {"x": 1.0}
        assert len(calls) == 1

    def test_clear(self):
        cache = ShardedGridCache()
        cache.store("fp6", OMEGA, np.ones(8))
        cache.clear()
        assert cache.stats()["entries"] == 0


class TestPayloadAccounting:
    def test_payload_nbytes_tracks_encoded_size(self):
        small = Payload({"a": 1.0})
        big = Payload({"key": list(range(1000))})
        assert 0 < small.nbytes < big.nbytes

    def test_unencodable_payload_degrades_to_zero(self):
        assert Payload({"x": object()}).nbytes > 0  # default=str covers it
        assert Payload({1j: "bad-key"}).nbytes == 0

    def test_byte_budget_evicts_dict_payloads(self):
        blob = {"values": list(range(2000))}
        per_entry = Payload(blob).nbytes
        cache = ShardedGridCache(shards=1, max_bytes=2 * per_entry + 10)
        for i in range(5):
            cache.store(f"fp{i:02d}", None, dict(blob))
        stats = cache.stats()
        assert stats["entries"] <= 2
        assert stats["evictions"] >= 3


class TestEncodedEntries:
    def test_encoded_reply_replaces_the_value_and_counts_its_length(self):
        cache = ShardedGridCache(shards=1)
        cache.store("ee000000", OMEGA, np.ones(8))
        assert cache.stats()["bytes"] == 64
        cache.store_encoded("ee000000", OMEGA, b'{"x":[1.0,2.0]')
        assert cache.lookup("ee000000", OMEGA) == b'{"x":[1.0,2.0]'
        stats = cache.stats()
        assert stats["bytes"] == 14 and stats["entries"] == 1

    def test_encoded_reply_keeps_the_entry_ttl(self, monkeypatch):
        import repro.core.memo as memo

        clock = [0.0]
        monkeypatch.setattr(memo.time, "monotonic", lambda: clock[0])
        cache = ShardedGridCache(shards=1, ttl_seconds=5.0)
        cache.store("ff000000", None, {"v": 1.0}, flavor=("margins",))
        clock[0] = 4.0
        assert cache.lookup("ff000000", None, flavor=("margins",)) == {"v": 1.0}
        cache.store_encoded("ff000000", None, b'{"v":1.0', flavor=("margins",))
        clock[0] = 6.0  # past the TTL of the original store, not of the swap
        assert cache.lookup("ff000000", None, flavor=("margins",)) is None
        assert cache.stats()["expirations"] == 1

    def test_encoding_a_missing_entry_stores_nothing(self):
        cache = ShardedGridCache(shards=1)
        cache.store_encoded("ab000000", OMEGA, b'{"x":1')
        assert cache.lookup("ab000000", OMEGA) is None
        assert cache.stats()["entries"] == 0


class TestStats:
    def test_merged_counters_and_hit_rate(self):
        cache = ShardedGridCache(shards=2)
        cache.store("aa000000", None, {"v": 1.0})
        assert cache.lookup("aa000000", None) is not None  # hit
        assert cache.lookup("bb000000", None) is None  # miss
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["shards"] == 2
        assert sum(stats["entries_per_shard"]) == stats["entries"] == 1

    def test_ttl_expiry_counts(self, monkeypatch):
        import repro.core.memo as memo

        clock = [0.0]
        monkeypatch.setattr(memo.time, "monotonic", lambda: clock[0])
        cache = ShardedGridCache(shards=2, ttl_seconds=5.0)
        cache.store("cc000000", None, {"v": 1.0})
        clock[0] = 6.0
        assert cache.lookup("cc000000", None) is None
        assert cache.stats()["expirations"] == 1

    def test_configure_forwards_to_every_shard(self):
        cache = ShardedGridCache(shards=3)
        cache.configure(ttl_seconds=9.0)
        assert cache.stats()["ttl_seconds"] == 9.0
