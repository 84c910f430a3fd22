"""Sharded TTL/byte-budget result cache for the analysis service.

One process-global :data:`repro.core.memo.grid_cache` is fine for a single
sweep, but a server answering concurrent requests funnels *every* lookup
through one lock.  :class:`ShardedGridCache` splits the key space over N
independent :class:`~repro.core.memo.GridEvalCache` shards — the shard is
picked from the design fingerprint's leading bytes, so all variants of one
design (different grids, different endpoints) live on, and contend for,
one shard while unrelated designs proceed in parallel.  Each shard carries
the TTL and byte-budget eviction the memo layer grew for exactly this use:
a long-lived server must bound both memory and staleness.

Values are either numpy arrays (byte-accounted via ``nbytes``) or, for the
scalar endpoints, :class:`Payload`-wrapped JSON-able dicts whose ``nbytes``
is estimated from their encoded size — so the byte budget is honest across
both shapes.  Once an entry is hit, the server swaps its value for the
encoded reply (:meth:`ShardedGridCache.store_encoded`), which then counts
by its length.
"""

from __future__ import annotations

import json
from typing import Any, Callable

import numpy as np

from repro.core.memo import GridEvalCache

__all__ = ["Payload", "ShardedGridCache"]

#: One-point grid standing in for "no frequency axis" (scalar endpoints).
_NO_GRID = np.zeros(1)


class _FingerprintKey:
    """Adapter giving a raw fingerprint the operator ``fingerprint()`` shape.

    :class:`GridEvalCache` keys on ``operator.fingerprint()`` and pins the
    operator object per entry; for served results the "operator" is just
    the design fingerprint string, which is content-based and therefore
    safe to re-wrap on every call.
    """

    __slots__ = ("_fp",)

    def __init__(self, fingerprint: str | bytes):
        self._fp = (
            fingerprint if isinstance(fingerprint, bytes) else fingerprint.encode()
        )

    def fingerprint(self) -> bytes:
        return self._fp


class Payload:
    """A non-array cache value with an explicit byte-size estimate.

    Without ``nbytes`` the size is estimated from the value's JSON length.
    """

    __slots__ = ("value", "nbytes")

    def __init__(self, value: Any, nbytes: int | None = None):
        self.value = value
        if nbytes is None:
            try:
                nbytes = len(json.dumps(value, default=str))
            except (TypeError, ValueError):
                nbytes = 0
        self.nbytes = nbytes


class _Shard(GridEvalCache):
    """A :class:`GridEvalCache` whose live entries can change value in place."""

    def replace(
        self, operator, s_arr: np.ndarray, value: Any, flavor: tuple | None = None
    ) -> None:
        """Swap a live entry's value, keeping its insertion time (the TTL
        clock); the byte budget re-counts the entry, evicting the least
        recently used others if it is now exceeded.  No entry: no-op."""
        key = self._key(operator, s_arr, 0, flavor)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return
            _old, pin, stored_at = entry
            # Evicts only older entries, never the one just stored.
            self._store_locked(key, value, pin)
            self._entries[key] = (value, pin, stored_at)


class ShardedGridCache:
    """N independent TTL/byte-budget caches addressed by fingerprint hash."""

    def __init__(
        self,
        shards: int = 4,
        maxsize: int = 256,
        max_bytes: int | None = None,
        ttl_seconds: float | None = None,
    ):
        shards = max(int(shards), 1)
        per_shard_bytes = (
            None if max_bytes is None else max(int(max_bytes) // shards, 1)
        )
        self._shards = tuple(
            _Shard(
                maxsize=maxsize,
                max_bytes=per_shard_bytes,
                ttl_seconds=ttl_seconds,
            )
            for _ in range(shards)
        )

    def __len__(self) -> int:
        return len(self._shards)

    def shard_index(self, fingerprint: str) -> int:
        """Deterministic shard for a fingerprint (leading hex bytes)."""
        try:
            value = int(str(fingerprint)[:8], 16)
        except ValueError:
            value = sum(str(fingerprint).encode())
        return value % len(self._shards)

    def _shard(self, fingerprint: str) -> _Shard:
        return self._shards[self.shard_index(fingerprint)]

    @staticmethod
    def _omega(omega: np.ndarray | None) -> np.ndarray:
        return _NO_GRID if omega is None else np.asarray(omega, dtype=float)

    def lookup(
        self,
        fingerprint: str,
        omega: np.ndarray | None,
        flavor: tuple | None = None,
    ) -> Any | None:
        """Cached value for ``(fingerprint, omega, flavor)`` or ``None``.

        An entry given its encoded reply (:meth:`store_encoded`) returns
        those ``bytes``.
        """
        value = self._shard(fingerprint).lookup(
            _FingerprintKey(fingerprint), self._omega(omega), 0, flavor=flavor
        )
        return value.value if isinstance(value, Payload) else value

    def store(
        self,
        fingerprint: str,
        omega: np.ndarray | None,
        value: Any,
        flavor: tuple | None = None,
    ) -> None:
        """Insert an externally computed value (arrays become read-only)."""
        if not isinstance(value, np.ndarray):
            value = Payload(value)
        self._shard(fingerprint).store(
            _FingerprintKey(fingerprint),
            self._omega(omega),
            0,
            value,
            flavor=flavor,
        )

    def store_encoded(
        self,
        fingerprint: str,
        omega: np.ndarray | None,
        prefix: bytes,
        flavor: tuple | None = None,
    ) -> None:
        """Keep an entry's encoded reply in place of its value.

        Later lookups return ``prefix``; the byte budget counts its length,
        and the entry keeps its TTL clock.  An entry evicted or expired
        since the lookup is not stored again.
        """
        self._shard(fingerprint).replace(
            _FingerprintKey(fingerprint),
            self._omega(omega),
            Payload(prefix, len(prefix)),
            flavor=flavor,
        )

    def fetch(
        self,
        fingerprint: str,
        omega: np.ndarray | None,
        compute: Callable[[], Any],
        flavor: tuple | None = None,
    ) -> Any:
        """Lookup-or-compute convenience used by tests and simple callers."""
        value = self.lookup(fingerprint, omega, flavor=flavor)
        if value is not None:
            return value
        value = compute()
        self.store(fingerprint, omega, value, flavor=flavor)
        return value

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    def purge_expired(self) -> int:
        """Drop expired entries across every shard; returns the count."""
        return sum(shard.purge_expired() for shard in self._shards)

    def configure(self, **kwargs: Any) -> None:
        """Forward a :meth:`GridEvalCache.configure` call to every shard."""
        for shard in self._shards:
            shard.configure(**kwargs)

    def stats(self) -> dict[str, Any]:
        """Aggregated counters plus the per-shard entry distribution."""
        merged: dict[str, Any] = {
            "shards": len(self._shards),
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "expirations": 0,
            "entries": 0,
            "bytes": 0,
        }
        per_shard = []
        for shard in self._shards:
            stats = shard.stats()
            for key in ("hits", "misses", "evictions", "expirations", "entries", "bytes"):
                merged[key] += stats[key]
            per_shard.append(stats["entries"])
        merged["entries_per_shard"] = per_shard
        merged["max_bytes"] = self._shards[0].max_bytes
        merged["ttl_seconds"] = self._shards[0].ttl_seconds
        merged["maxsize"] = self._shards[0].maxsize
        total = merged["hits"] + merged["misses"]
        merged["hit_rate"] = merged["hits"] / total if total else 0.0
        return merged
