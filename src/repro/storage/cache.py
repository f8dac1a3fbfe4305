"""Byte-budgeted block cache and I/O accounting for out-of-core tables.

:class:`BlockCache` keeps deserialised blocks under a byte budget with LRU
eviction.  It is the memory governor of :class:`~repro.storage.disk.
DiskRelation`: every lazy block load goes through :meth:`BlockCache.
get_or_load`, so a table larger than RAM is queryable with bounded resident
bytes — the working set is whatever survived pruning, trimmed to the budget.

The cache is thread-safe and *single-flight*: when several workers of the
parallel engine fault the same block concurrently, exactly one of them
runs the loader while the others wait for its result; loads of *different*
blocks proceed in parallel (the loader runs outside the cache lock).  An
entry larger than the whole budget is returned to the caller but never
cached, so a budget smaller than one block's working set degrades to
load-per-access instead of failing.

Budget arbitration is *tenant-aware*: tuple keys group by their first
element (the relation's ``cache_token`` for disk relations), and when the
budget is exceeded eviction rotates round-robin across tenants, taking each
victim tenant's least-recently-used entry.  A hot table can therefore no
longer starve a colder one out of a shared cache — each eviction round
costs every resident tenant one entry, instead of draining whichever
table's entries happen to be globally oldest.  With a single tenant this
degrades to plain LRU.  :meth:`BlockCache.occupancy` reports the resident
entries/bytes per tenant, which is what the query service's ``/metrics``
exposes for cache-budget arbitration between tables.

:class:`IOMetrics` counts the bytes and blocks actually fetched from a
table file.  Cache hits never touch the counters, which is what lets tests
and benchmarks prove that pruned blocks contribute zero bytes read.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

from ..errors import ValidationError

__all__ = ["BlockCache", "CacheStats", "IOMetrics", "TenantOccupancy"]

V = TypeVar("V")

#: Default cache budget for disk relations: enough for a handful of the
#: paper's 1 M-tuple blocks without approaching typical container limits.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

_current_tracer: "Callable[[], object] | None" = None


def _tracer():
    """The thread's ambient query tracer (usually ``TRACE_DISABLED``).

    Imported lazily and memoized: the query layer imports storage, so a
    module-level ``repro.query.tracing`` import here would be circular.
    After the first call this is one global read plus the thread-local
    lookup inside ``current_tracer``.
    """
    global _current_tracer
    if _current_tracer is None:
        from ..query.tracing import current_tracer

        _current_tracer = current_tracer
    return _current_tracer()


@dataclass
class CacheStats:
    """Counters describing what one :class:`BlockCache` did so far.

    ``hits`` includes waiters that piggybacked on another thread's in-flight
    load (they never ran the loader).  ``oversized`` counts loads whose entry
    exceeded the whole budget and was therefore returned uncached.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    oversized: int = 0
    current_bytes: int = 0
    current_entries: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def describe(self) -> str:
        return (
            f"{self.hits}/{self.requests} hits ({self.hit_rate:.0%}), "
            f"{self.evictions} evicted, {self.oversized} oversized, "
            f"{self.current_entries} entries / {self.current_bytes:,} bytes resident"
        )


@dataclass
class IOMetrics:
    """Bytes, blocks and column segments fetched from one table file.

    Cache hits never touch these counters.  ``bytes_read`` is the total
    fetched from the data region — full block segments plus column
    sub-segments; ``column_bytes_read``/``columns_read`` is the
    column-granular sub-account.  ``column_block_bytes`` accumulates the
    *whole-segment* size of every block that was served column-granularly
    (each block charged once), so ``column_bytes_read / column_block_bytes``
    is the read amplification column pruning avoided, and
    ``columns_skipped`` counts the column segments of those blocks that were
    never fetched.  ``prefetch_issued``/``prefetch_hits`` account the
    read-ahead pool: segments it scheduled, and demand fetches that found
    their segment already resident (or in flight) because of it.
    ``reads_coalesced`` counts the ``pread`` calls *saved* by merging
    byte-adjacent column segments into one ranged read (a run of *n*
    contiguous segments fetched together adds *n − 1*).
    """

    bytes_read: int = 0
    blocks_read: int = 0
    footer_bytes_read: int = 0
    columns_read: int = 0
    column_bytes_read: int = 0
    columns_skipped: int = 0
    column_block_bytes: int = 0
    prefetch_issued: int = 0
    prefetch_hits: int = 0
    reads_coalesced: int = 0
    #: Bumped by :meth:`reset` so owners of derived per-block state (the
    #: table reader's touched-column map) know to restart their accounting.
    epoch: int = field(default=0, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def record_block(self, n_bytes: int) -> None:
        with self._lock:
            self.bytes_read += int(n_bytes)
            self.blocks_read += 1

    def record_footer(self, n_bytes: int) -> None:
        with self._lock:
            self.footer_bytes_read += int(n_bytes)

    def record_column_block(self, block_bytes: int, n_columns: int) -> None:
        """First column fetch of a block: its whole segment becomes the
        baseline (``column_block_bytes``) and every column starts skipped."""
        with self._lock:
            self.column_block_bytes += int(block_bytes)
            self.columns_skipped += int(n_columns)

    def record_column(self, n_bytes: int, new_column: bool = True) -> None:
        with self._lock:
            self.bytes_read += int(n_bytes)
            self.column_bytes_read += int(n_bytes)
            self.columns_read += 1
            if new_column:
                self.columns_skipped -= 1

    def record_prefetch_issued(self, n_segments: int = 1) -> None:
        with self._lock:
            self.prefetch_issued += int(n_segments)

    def record_prefetch_hit(self) -> None:
        with self._lock:
            self.prefetch_hits += 1

    def record_coalesced(self, n_saved: int) -> None:
        with self._lock:
            self.reads_coalesced += int(n_saved)

    def reset(self) -> None:
        with self._lock:
            self.bytes_read = 0
            self.blocks_read = 0
            self.footer_bytes_read = 0
            self.columns_read = 0
            self.column_bytes_read = 0
            self.columns_skipped = 0
            self.column_block_bytes = 0
            self.prefetch_issued = 0
            self.prefetch_hits = 0
            self.reads_coalesced = 0
            self.epoch += 1

    def describe(self) -> str:
        return (
            f"{self.blocks_read} block(s) + {self.columns_read} column segment(s) / "
            f"{self.bytes_read:,} bytes read "
            f"({self.columns_skipped} column segment(s) skipped, "
            f"+{self.footer_bytes_read:,} footer bytes)"
        )


@dataclass(frozen=True)
class TenantOccupancy:
    """Resident footprint of one tenant (one relation) in a shared cache."""

    entries: int
    bytes: int


def _tenant_of(key: Hashable) -> Hashable:
    """The tenant a key belongs to: tuple keys group by their first element.

    Disk relations key entries as ``(cache_token, block, column)``, so the
    token is the tenant.  Non-tuple keys share a single anonymous tenant,
    which keeps the cache usable (and purely LRU) for ad-hoc keys.
    """
    if isinstance(key, tuple) and key:
        return key[0]
    return None


class _InFlight:
    """One pending load: waiters block on the event, then read value/error."""

    __slots__ = ("event", "value", "size", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.size = 0
        self.error: BaseException | None = None


class _Entry:
    __slots__ = ("value", "size")

    def __init__(self, value, size: int) -> None:
        self.value = value
        self.size = size


class BlockCache:
    """A thread-safe, byte-budgeted LRU cache with single-flight loading.

    Parameters
    ----------
    budget_bytes:
        Maximum resident bytes; ``None`` means unbounded.  A budget of 0 is
        valid and caches nothing (every access reloads), which keeps queries
        correct even when one block exceeds the whole budget.
    """

    def __init__(self, budget_bytes: int | None = DEFAULT_CACHE_BYTES):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValidationError("cache budget must be non-negative (or None)")
        self._budget = budget_bytes
        #: Per-tenant LRU maps, in tenant-arrival order (see ``_tenant_of``).
        self._tenants: OrderedDict[Hashable, OrderedDict[Hashable, _Entry]] = OrderedDict()
        #: Round-robin eviction cursor: index into the current tenant list.
        self._victim_cursor = 0
        self._loading: dict[Hashable, _InFlight] = {}
        self._lock = threading.Lock()
        self._stats = CacheStats()

    @property
    def budget_bytes(self) -> int | None:
        return self._budget

    @property
    def stats(self) -> CacheStats:
        return self._stats

    def __len__(self) -> int:
        with self._lock:
            return sum(len(entries) for entries in self._tenants.values())

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            entries = self._tenants.get(_tenant_of(key))
            return entries is not None and key in entries

    def _lookup(self, key: Hashable) -> "_Entry | None":
        """The entry for ``key``, with its recency refreshed (lock held)."""
        entries = self._tenants.get(_tenant_of(key))
        if entries is None:
            return None
        entry = entries.get(key)
        if entry is not None:
            entries.move_to_end(key)
        return entry

    def get(self, key: Hashable):
        """The cached value for ``key`` (refreshing its recency) or ``None``."""
        with self._lock:
            entry = self._lookup(key)
            return None if entry is None else entry.value

    def status(self, key: Hashable) -> str:
        """``"cached"``, ``"loading"`` (a loader is in flight) or ``"absent"``.

        A point-in-time probe that never blocks and never counts as a
        request; the read-ahead layer uses it to tell whether a demand fetch
        was saved by a prefetch already resident or in flight.
        """
        with self._lock:
            entries = self._tenants.get(_tenant_of(key))
            if entries is not None and key in entries:
                return "cached"
            if key in self._loading:
                return "loading"
            return "absent"

    def occupancy(self) -> dict[Hashable, TenantOccupancy]:
        """Resident entries/bytes per tenant (the budget-arbitration probe).

        Tenants are tuple keys' first elements — for disk relations, their
        ``cache_token`` — so a shared cache reports how its budget is split
        across the relations currently resident in it.
        """
        with self._lock:
            return {
                tenant: TenantOccupancy(
                    entries=len(entries),
                    bytes=sum(entry.size for entry in entries.values()),
                )
                for tenant, entries in self._tenants.items()
            }

    def get_or_load(self, key: Hashable, loader: Callable[[], tuple[V, int]]) -> V:
        """Return the cached value for ``key``, loading it at most once.

        ``loader`` returns ``(value, size_bytes)``; it runs outside the cache
        lock so loads of different keys overlap.  Concurrent callers for the
        same key wait for the first loader instead of duplicating the work
        (and count as hits — they never performed I/O).  Loader exceptions
        propagate to every waiter and cache nothing.
        """
        tracer = _tracer()
        with tracer.span("fetch") as span:
            while True:
                with self._lock:
                    entry = self._lookup(key)
                    if entry is not None:
                        self._stats.hits += 1
                        if tracer.enabled:
                            span.annotate(outcome="hit", bytes=entry.size)
                        return entry.value
                    flight = self._loading.get(key)
                    if flight is None:
                        flight = _InFlight()
                        self._loading[key] = flight
                        break
                flight.event.wait()
                if flight.error is None:
                    with self._lock:
                        self._stats.hits += 1
                    if tracer.enabled:
                        span.annotate(outcome="wait", bytes=flight.size)
                    return flight.value  # type: ignore[return-value]
                raise flight.error

            try:
                value, size = loader()
            except BaseException as error:
                flight.error = error
                with self._lock:
                    del self._loading[key]
                flight.event.set()
                raise
            flight.value = value
            flight.size = int(size)
            with self._lock:
                self._stats.misses += 1
                self._insert(key, value, flight.size)
                del self._loading[key]
            flight.event.set()
            if tracer.enabled:
                span.annotate(outcome="miss", bytes=flight.size)
            return value

    def _insert(self, key: Hashable, value, size: int) -> None:
        """Store one entry, evicting round-robin across tenants to fit.

        Must be called with the lock held.
        """
        if size < 0:
            raise ValidationError("cache entry size must be non-negative")
        if self._budget is not None and size > self._budget:
            self._stats.oversized += 1
            return
        entries = self._tenants.setdefault(_tenant_of(key), OrderedDict())
        previous = entries.get(key)
        if previous is not None:
            self._stats.current_bytes -= previous.size
            self._stats.current_entries -= 1
        entries[key] = _Entry(value, size)
        entries.move_to_end(key)
        self._stats.current_bytes += size
        self._stats.current_entries += 1
        if self._budget is None:
            return
        while self._stats.current_bytes > self._budget and self._tenants:
            self._evict_one()

    def _evict_one(self) -> None:
        """Evict the round-robin victim tenant's LRU entry (lock held).

        The cursor advances one tenant per eviction, so sustained pressure
        is spread across every resident tenant instead of draining the
        globally-oldest entries (which under mixed workloads all belong to
        whichever table went cold first).
        """
        tenants = list(self._tenants)
        self._victim_cursor %= len(tenants)
        tenant = tenants[self._victim_cursor]
        entries = self._tenants[tenant]
        _, evicted = entries.popitem(last=False)
        if not entries:
            # The tenant emptied out; removing it shifts the next tenant
            # into the cursor's slot, which is exactly one step of rotation.
            del self._tenants[tenant]
        else:
            self._victim_cursor += 1
        self._stats.current_bytes -= evicted.size
        self._stats.current_entries -= 1
        self._stats.evictions += 1

    def clear(self) -> None:
        """Drop every cached entry (in-flight loads are unaffected)."""
        with self._lock:
            self._tenants.clear()
            self._victim_cursor = 0
            self._stats.current_bytes = 0
            self._stats.current_entries = 0
