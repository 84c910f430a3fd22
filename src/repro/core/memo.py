"""Evaluation-level memoization for batched HTM grid blocks.

Margin sweeps, stability maps and the figure experiments evaluate the same
operator stacks on the same frequency grids over and over — e.g. every
metric of :func:`repro.pll.sweeps.standard_metrics` rebuilds the closed
loop for the same PLL.  :class:`GridEvalCache` memoizes the result of
``operator.dense_grid(s, order)`` per *operator node*, keyed on

``(id-stable operator fingerprint, grid hash, truncation order[, flavor])``

so a composite evaluation reuses any child block that was already computed
for the same grid.  The optional ``flavor`` component separates evaluation
variants of the same operator/grid/order — structured evaluation uses
``("structured",)`` so a lazily-tagged
:class:`~repro.core.structured.StructuredGrid` and the dense oracle stack
never collide.

Scalar conveniences (``operator.dense``, ``operator.htm``) evaluate inside
:func:`bypass`, a scope in which :meth:`GridEvalCache.fetch` neither looks
up nor stores — one-point probes would otherwise churn the LRU and distort
scalar-vs-batched benchmarks.

Invalidation rules
------------------
* Fingerprints of value-based operators (Toeplitz multiplication, sampling,
  ISF integration, rational LTI embeddings) are content hashes — equal
  content hits the cache regardless of object identity.
* Operators wrapping *arbitrary callables* (irrational ``H(s)``, delays)
  are fingerprinted by ``id(callable)``.  Each cache entry keeps a strong
  reference to its operator, so an id can never be recycled while its entry
  is alive; evicting the entry drops the pin.  Mutating a callable in place
  is NOT tracked — treat transfer callables as immutable or call
  :func:`clear_cache`.
* Cached arrays are returned **read-only** (they may be shared between
  callers and with the cache).  ``.copy()`` before mutating.

The cache is a bounded LRU (default 256 grid blocks) with two further
optional limits:

* ``max_bytes`` — a byte budget over the summed logical ``nbytes`` of the
  live entries; inserting past it evicts LRU entries (the newest entry is
  always kept, even when it alone exceeds the budget — evicting the block
  the caller is about to use would only guarantee thrash).
* ``ttl_seconds`` — entries older than this (monotonic clock) are treated
  as absent: an expired hit is dropped, counted under ``expirations``, and
  recomputed.  The serving layer uses this so long-lived processes do not
  pin stale design results forever.

Disable the cache entirely with ``configure(enabled=False)`` to force
recomputation.

Multi-process use
-----------------
The cache is **per process**: worker processes (e.g. the lease workers of
a :mod:`repro.campaign` run) each own a private instance — a forked one
starts from a copy of its parent's, a spawned or remote one from cold, so
an N-worker campaign pays up to N cold warm-ups.  Two hooks make that
visible and manageable:

* :func:`cache_snapshot` returns a plain-``dict`` (picklable) snapshot of
  the counters *plus* the configuration, safe to ship across process
  boundaries; the campaign telemetry aggregates per-worker deltas of it.
* :func:`configure` is **idempotent**: re-applying the current
  configuration is a no-op, so it is safe to run in every worker (both
  under ``fork``, where the worker inherits the parent's configuration,
  and under ``spawn``, where it starts fresh).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

from repro.obs import spans as obs

__all__ = [
    "GridEvalCache",
    "grid_cache",
    "bypass",
    "bypass_active",
    "clear_cache",
    "cache_stats",
    "cache_snapshot",
    "configure",
]

_bypass = threading.local()


@contextmanager
def bypass():
    """Scope in which grid-cache fetches neither look up nor store.

    Used by the scalar conveniences (one-point grids) so probing a single
    frequency never evicts real grid blocks or pollutes hit/miss counters.
    Re-entrant and per-thread.
    """
    depth = getattr(_bypass, "depth", 0)
    _bypass.depth = depth + 1
    try:
        yield
    finally:
        _bypass.depth = depth


def bypass_active() -> bool:
    """True while inside a :func:`bypass` scope on this thread."""
    return getattr(_bypass, "depth", 0) > 0


def _grid_key(s_arr: np.ndarray) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(s_arr.tobytes())
    digest.update(str(s_arr.shape).encode())
    return digest.digest()


#: Sentinel distinguishing "not passed" from an explicit ``None`` (= no
#: limit) in :meth:`GridEvalCache.configure`.
_UNSET: Any = object()


class GridEvalCache:
    """Bounded LRU cache of ``(fingerprint, grid, order) -> dense grid block``.

    Three eviction dimensions compose:

    * ``maxsize`` — entry-count LRU bound (the original limit);
    * ``max_bytes`` — byte budget over the summed logical ``nbytes``
      (``None`` = unlimited);
    * ``ttl_seconds`` — per-entry time-to-live on the monotonic clock
      (``None`` = entries never expire).
    """

    def __init__(
        self,
        maxsize: int = 256,
        max_bytes: int | None = None,
        ttl_seconds: float | None = None,
    ):
        self.maxsize = int(maxsize)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.ttl_seconds = None if ttl_seconds is None else float(ttl_seconds)
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        # Byte-size estimate of the cached arrays (logical ``nbytes``; a
        # broadcast block counts at its logical, not physical, size).
        self.bytes = 0
        self._lock = threading.Lock()
        # key -> (value, pinned operator, stored_at). The pin keeps any
        # id()-based fingerprint component valid for the lifetime of the
        # entry; ``stored_at`` is the monotonic insertion time the TTL is
        # measured against.  Values are dense ndarray stacks or
        # StructuredGrid instances (both expose ``nbytes``; both are
        # immutable once stored).
        self._entries: "OrderedDict[tuple, tuple[object, object, float]]" = OrderedDict()

    @staticmethod
    def _key(operator, s_arr: np.ndarray, order: int, flavor: tuple | None) -> tuple:
        key = (operator.fingerprint(), _grid_key(s_arr), int(order))
        if flavor is not None:
            key = key + (flavor,)
        return key

    def _expired(self, stored_at: float) -> bool:
        return (
            self.ttl_seconds is not None
            and time.monotonic() - stored_at > self.ttl_seconds
        )

    def _get_locked(self, key: tuple):
        """Live entry value for ``key`` or None; drops expired entries.

        Counts a hit on success; callers count the miss (a pure lookup
        miss and a fetch miss are the same event).  Must hold ``_lock``.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        if self._expired(entry[2]):
            del self._entries[key]
            self.bytes -= int(getattr(entry[0], "nbytes", 0))
            self.expirations += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def _store_locked(self, key: tuple, value, operator) -> int:
        """Insert ``value`` and enforce the count and byte limits."""
        previous = self._entries.pop(key, None)
        if previous is not None:
            self.bytes -= int(getattr(previous[0], "nbytes", 0))
        nbytes = int(getattr(value, "nbytes", 0))
        self._entries[key] = (value, operator, time.monotonic())
        self.bytes += nbytes
        while len(self._entries) > self.maxsize or (
            self.max_bytes is not None
            and self.bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            _, (evicted, _pin, _t) = self._entries.popitem(last=False)
            self.bytes -= int(getattr(evicted, "nbytes", 0))
            self.evictions += 1
        return nbytes

    def fetch(
        self,
        operator,
        s_arr: np.ndarray,
        order: int,
        compute: Callable[[np.ndarray, int], np.ndarray],
        flavor: tuple | None = None,
    ) -> np.ndarray:
        """Return the cached grid block or compute, store and return it.

        ``flavor``, when given, becomes part of the key — structured grids
        cache independently of the plain dense stack.
        """
        if not self.enabled or self.maxsize <= 0 or bypass_active():
            return compute(s_arr, order)
        key = self._key(operator, s_arr, order, flavor)
        with self._lock:
            value = self._get_locked(key)
        if value is not None:
            if obs.enabled():
                obs.add("memo.hit")
            return value
        value = compute(s_arr, order)
        if isinstance(value, np.ndarray):
            value = np.asarray(value)
            value.flags.writeable = False
        with self._lock:
            self.misses += 1
            nbytes = self._store_locked(key, value, operator)
        if obs.enabled():
            obs.add("memo.miss")
            obs.add("memo.bytes_stored", nbytes)
        return value

    def lookup(
        self,
        operator,
        s_arr: np.ndarray,
        order: int,
        flavor: tuple | None = None,
    ):
        """Non-computing probe: the cached value, or ``None`` on a miss.

        Counts hits and misses like :meth:`fetch`; pair with :meth:`store`
        when the computation happens elsewhere (the serving layer computes
        through the micro-batcher, then stores each request's slice).
        """
        if not self.enabled or self.maxsize <= 0 or bypass_active():
            return None
        key = self._key(operator, s_arr, order, flavor)
        with self._lock:
            value = self._get_locked(key)
            if value is None:
                self.misses += 1
        if obs.enabled():
            obs.add("memo.hit" if value is not None else "memo.miss")
        return value

    def store(
        self,
        operator,
        s_arr: np.ndarray,
        order: int,
        value,
        flavor: tuple | None = None,
    ) -> None:
        """Insert an externally computed value (no hit/miss accounting)."""
        if not self.enabled or self.maxsize <= 0 or bypass_active():
            return
        if isinstance(value, np.ndarray):
            value = np.asarray(value)
            value.flags.writeable = False
        key = self._key(operator, s_arr, order, flavor)
        with self._lock:
            nbytes = self._store_locked(key, value, operator)
        if obs.enabled():
            obs.add("memo.bytes_stored", nbytes)

    def purge_expired(self) -> int:
        """Drop every expired entry now; returns the number removed."""
        if self.ttl_seconds is None:
            return 0
        removed = 0
        with self._lock:
            for key in [
                k for k, (_v, _p, t) in self._entries.items() if self._expired(t)
            ]:
                value, _pin, _t = self._entries.pop(key)
                self.bytes -= int(getattr(value, "nbytes", 0))
                self.expirations += 1
                removed += 1
        return removed

    def clear(self) -> None:
        """Drop every entry (and the operator pins) and reset counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.expirations = 0
            self.bytes = 0

    def stats(self) -> dict[str, int]:
        """Current counters: hits/misses/evictions/expirations/entries/bytes/limits.

        ``bytes`` is the byte-size *estimate* of the live entries (summed
        logical ``nbytes``), the figure ``repro obs summary`` reports.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "entries": len(self._entries),
                "bytes": self.bytes,
                "maxsize": self.maxsize,
                "max_bytes": self.max_bytes,
                "ttl_seconds": self.ttl_seconds,
            }

    def snapshot(self) -> dict[str, int | float | bool | None]:
        """Picklable snapshot: :meth:`stats` plus the configuration.

        Safe to send across process boundaries (plain builtins only) —
        campaign workers report deltas of this to the run telemetry.
        """
        out = self.stats()
        out["enabled"] = self.enabled
        return out

    def configure(
        self,
        enabled: bool | None = None,
        maxsize: int | None = None,
        max_bytes: int | None = _UNSET,
        ttl_seconds: float | None = _UNSET,
    ) -> None:
        """Toggle the cache or retune its limits (shrinking evicts LRU entries).

        ``max_bytes`` / ``ttl_seconds`` accept an explicit ``None`` to
        remove the respective limit; leaving them unpassed changes nothing.
        Idempotent: re-applying the current values changes nothing (no
        eviction, no counter reset), so this is safe to call once per
        worker process regardless of the start method.
        """
        with self._lock:
            if enabled is not None:
                self.enabled = bool(enabled)
            if ttl_seconds is not _UNSET:
                new_ttl = None if ttl_seconds is None else float(ttl_seconds)
                if new_ttl != self.ttl_seconds:
                    self.ttl_seconds = new_ttl
            changed_bytes = False
            if max_bytes is not _UNSET:
                new_bytes = None if max_bytes is None else int(max_bytes)
                if new_bytes != self.max_bytes:
                    self.max_bytes = new_bytes
                    changed_bytes = True
            if maxsize is not None and int(maxsize) != self.maxsize:
                self.maxsize = int(maxsize)
                changed_bytes = True
            if changed_bytes:
                while len(self._entries) > max(self.maxsize, 0) or (
                    self.max_bytes is not None
                    and self.bytes > self.max_bytes
                    and len(self._entries) > 1
                ):
                    _, (evicted, _pin, _t) = self._entries.popitem(last=False)
                    self.bytes -= int(getattr(evicted, "nbytes", 0))
                    self.evictions += 1


#: Process-wide cache used by :meth:`HarmonicOperator.dense_grid`.
grid_cache = GridEvalCache()


def clear_cache() -> None:
    """Clear the process-wide grid evaluation cache."""
    grid_cache.clear()


def cache_stats() -> dict[str, int]:
    """Counters of the process-wide grid evaluation cache."""
    return grid_cache.stats()


def cache_snapshot() -> dict[str, int | float | bool | None]:
    """Picklable snapshot (counters + config) of the process-wide cache."""
    return grid_cache.snapshot()


def configure(
    enabled: bool | None = None,
    maxsize: int | None = None,
    max_bytes: int | None = _UNSET,
    ttl_seconds: float | None = _UNSET,
) -> None:
    """Configure the process-wide grid evaluation cache."""
    grid_cache.configure(
        enabled=enabled,
        maxsize=maxsize,
        max_bytes=max_bytes,
        ttl_seconds=ttl_seconds,
    )
