"""The server's main-memory block cache (buffer pool).

Clio "is able to use much of the existing mechanism of the file server,
such as the buffer pool" (Section 1).  This cache is therefore *shared*:
the conventional file system and the log service both run through one
instance, keyed by ``(namespace, block_address)`` so regular-file blocks
and log-volume blocks coexist without colliding.

The pool has two tiers:

* the **raw tier** — the block images themselves, LRU-replaced, which is
  what the paper's buffer pool holds; and
* the **parsed tier** — the decoded :class:`~repro.core.block.ParsedBlock`
  objects piggybacking on resident raw blocks, so a cache hit skips the
  per-block interpretation work entirely.  A parsed object exists only
  while its raw block is resident; eviction, invalidation, replacement and
  :meth:`clear` drop both tiers together, so the decoded tier can never
  serve bytes the raw tier no longer holds.  The parsed object also carries
  the reader's per-record decode memo, which therefore shares this
  lifetime; :meth:`BlockCache.get_warm` is the one-call access to it.

Sim-time accounting is unchanged by the parsed tier: the reader still
charges ``cached_block_ms`` per cached access (the paper's ~0.6 ms covers
access *and* interpretation); skipping ``parse_block`` is a pure
wall-clock win tracked by ``CacheStats.parse_avoided``.

Replacement is LRU with optional pinning (a pinned block — e.g. the tail
block the writer is filling — is never evicted).  The cache itself charges
no simulated time: device time is charged by the device a miss falls
through to, and per-block interpretation time is charged by the reader,
matching the paper's cost decomposition.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.cache.stats import CacheStats

__all__ = ["BlockCache"]


class BlockCache:
    """A fixed-capacity LRU buffer pool keyed by arbitrary hashable keys."""

    def __init__(self, capacity_blocks: int):
        if capacity_blocks <= 0:
            raise ValueError(
                f"capacity_blocks must be positive, got {capacity_blocks}"
            )
        self.capacity_blocks = capacity_blocks
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, bytes] = OrderedDict()
        self._pinned: set[Hashable] = set()
        #: Decoded-object pool, keyed like ``_entries``; strictly a subset
        #: of the raw tier's keys (dropped together with the raw block).
        #: Opaque to the cache (``Any``): whoever pools an object knows its
        #: type.
        self._parsed: dict[Hashable, Any] = {}
        #: Keys staged by read-ahead and not yet demand-accessed.
        self._prefetched: set[Hashable] = set()
        #: Optional ``(key)`` callback invoked after each block leaves the
        #: cache through eviction — LRU pressure or :meth:`clear` — the
        #: event journal's hook (:mod:`repro.obs.events`).
        self.on_evict = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    # -- core operations ---------------------------------------------------

    def get(
        self, key: Hashable, loader: Callable[..., bytes], *args: Any
    ) -> bytes:
        """Return the cached block, calling ``loader(*args)`` on a miss.

        The loader's result is inserted (possibly evicting the LRU unpinned
        block) and returned.
        """
        data = self._entries.get(key)
        if data is not None:
            self.stats.hits += 1
            if key in self._prefetched:
                self._prefetched.discard(key)
                self.stats.prefetch_hits += 1
            self._entries.move_to_end(key)
            return data
        self.stats.misses += 1
        data = loader(*args)
        self._insert(key, data)
        return data

    def peek(self, key: Hashable) -> bytes | None:
        """Return the cached block without counting an access or touching LRU."""
        return self._entries.get(key)

    def put(self, key: Hashable, data: bytes) -> None:
        """Insert or refresh a block (e.g. one the writer just produced)."""
        if key in self._entries:
            # New bytes under an existing key: any decoded object is stale.
            self._parsed.pop(key, None)
            self._prefetched.discard(key)
            self._entries[key] = data
            self._entries.move_to_end(key)
        else:
            self._insert(key, data)

    def put_prefetched(self, key: Hashable, data: bytes) -> bool:
        """Stage a block brought in by read-ahead; returns False if the key
        was already resident (the stage is then a no-op, preserving LRU
        position and any decoded object)."""
        if key in self._entries:
            return False
        self._insert(key, data)
        self._prefetched.add(key)
        self.stats.prefetched += 1
        return True

    def invalidate(self, key: Hashable) -> None:
        """Drop a block from the cache (unpins it if pinned)."""
        self._pinned.discard(key)
        self._parsed.pop(key, None)
        self._prefetched.discard(key)
        self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop everything — models the loss of volatile memory in a crash.

        Fires :attr:`on_evict` for every resident block (in LRU order, like
        pressure evictions) so event consumers see one consistent eviction
        stream however a block leaves the cache.  ``stats.evictions`` still
        counts only capacity evictions — a crash is not cache pressure.
        """
        victims = list(self._entries) if self.on_evict is not None else ()
        self._entries.clear()
        self._pinned.clear()
        self._parsed.clear()
        self._prefetched.clear()
        for key in victims:
            self.on_evict(key)

    # -- the parsed tier ---------------------------------------------------

    def get_parsed(self, key: Hashable) -> Any:
        """The decoded object pooled for a resident block, else None.

        A hit is counted in ``stats.parse_avoided`` — the caller was about
        to re-interpret bytes it has already interpreted.
        """
        parsed = self._parsed.get(key)
        if parsed is not None:
            self.stats.parse_avoided += 1
        return parsed

    def get_warm(self, key: Hashable) -> Any:
        """One access to a resident block whose decoded object is pooled.

        Accounts exactly as a :meth:`get` hit followed by a
        :meth:`get_parsed` hit — a hit, a parse avoided, LRU refresh — in
        one call that never touches the raw bytes.  Returns None, and
        counts nothing, when no decoded object is pooled: the caller then
        takes the ``get`` path, which accounts for that access itself.
        """
        parsed = self._parsed.get(key)
        if parsed is not None:
            stats = self.stats
            stats.hits += 1
            stats.parse_avoided += 1
            if self._prefetched and key in self._prefetched:
                self._prefetched.discard(key)
                stats.prefetch_hits += 1
            self._entries.move_to_end(key)
        return parsed

    def put_parsed(self, key: Hashable, parsed: Any) -> None:
        """Pool the decoded form of a block.

        Ignored unless the raw block is resident: the parsed tier may never
        outlive the bytes it was decoded from.
        """
        if key in self._entries:
            self._parsed[key] = parsed

    # -- pinning --------------------------------------------------------------

    def pin(self, key: Hashable) -> None:
        if key not in self._entries:
            raise KeyError(f"cannot pin uncached block {key!r}")
        self._pinned.add(key)

    def unpin(self, key: Hashable) -> None:
        self._pinned.discard(key)

    def is_pinned(self, key: Hashable) -> bool:
        return key in self._pinned

    # -- internals ---------------------------------------------------------------

    def _insert(self, key: Hashable, data: bytes) -> None:
        self._entries[key] = data
        self._entries.move_to_end(key)
        self.stats.insertions += 1
        while len(self._entries) > self.capacity_blocks:
            victim = self._find_victim(exclude=key)
            if victim is None:
                # Everything is pinned; allow temporary over-capacity rather
                # than deadlock.  The writer pins at most one block, so this
                # only triggers in pathological tests.
                break
            del self._entries[victim]
            self._parsed.pop(victim, None)
            self._prefetched.discard(victim)
            self.stats.evictions += 1
            if self.on_evict is not None:
                self.on_evict(victim)

    def _find_victim(self, exclude: Hashable) -> Hashable | None:
        # Never evict the block being inserted, even under full pin pressure.
        for key in self._entries:
            if key not in self._pinned and key != exclude:
                return key
        return None
