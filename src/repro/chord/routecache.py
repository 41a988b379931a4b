"""Route cache: memoized ``find_successor`` answers for the lookup hot path.

P2P-LTR's workloads hit the same Master-key peer over and over (every
commit of a document looks up the same key, E1/E5 issue long runs of
lookups for a handful of keys).  Re-walking the O(log N) finger chain for
each of them is wasted work once the ring is stable, so every node keeps a
small LRU cache of recently resolved *responsibility intervals*:

    (start, end]  ->  owner NodeRef

A lookup whose target falls inside a cached interval is answered in zero
hops.  Because cached routes go stale under churn, three safety mechanisms
bound the staleness window:

* entries expire after a TTL (a small multiple of the stabilization
  period by default),
* entries pointing at peers observed to be unreachable are purged, and
* membership events seen by the node (successor change, predecessor
  hand-off, departure notifications) clear or purge the cache; the
  :class:`~repro.chord.ring.ChordRing` driver additionally clears every
  live node's cache when it orchestrates a join, leave or crash.

A lookup costs O(log n) in the cache size, not a scan.  Entries sit in an
LRU-ordered dict; beside it the cache keeps

* an expiry heap of ``(stamp, interval)``: the expired entries are exactly
  the ones with the oldest stamps, so a lookup pops them off the front
  instead of testing every entry's age (stale heap items left behind by
  re-stores, evictions and invalidations are skipped when they surface);
* a containment index: the non-wrapping intervals sorted by start (probed
  with ``bisect``) plus the one wrapping interval.  On a stable ring the
  cached intervals are pairwise disjoint, so at most one can contain a
  target and the index finds it.

Storing an interval that overlaps a cached one (stale routes under churn
or partitions) drops the index: with overlaps the least recently used
containing interval must answer, so lookups scan in LRU order until the
cache empties or is cleared.  Answers, counters and LRU order are the
same in both modes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from heapq import heapify, heappop, heappush
from typing import Any, Optional

from .refs import NodeRef

Interval = tuple[int, int]


class RouteCache:
    """LRU cache of ``(start, end] -> owner`` routing intervals."""

    def __init__(self, capacity: int = 128, ttl: float = 1.0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self._entries: OrderedDict[Interval, tuple[NodeRef, float]] = OrderedDict()
        self._expiry: list[tuple[float, Interval]] = []
        # Containment index (only maintained while ``_overlapping`` is off):
        # non-wrapping intervals sorted by start, and the wrapping one.
        self._starts: list[int] = []
        self._sorted: list[Interval] = []
        self._wrap: Optional[Interval] = None
        self._overlapping = False
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- queries ------------------------------------------------------------

    def lookup(self, target_id: int, now: float) -> Optional[tuple[Interval, NodeRef]]:
        """The cached ``(interval, owner)`` containing ``target_id``, if fresh.

        Expired entries are dropped first (each one counted as an
        invalidation); of the fresh entries containing ``target_id`` the
        least recently used one answers and becomes the most recently used.
        """
        expiry = self._expiry
        if expiry and now - expiry[0][0] > self.ttl:
            self._expire(now)
        hit: Optional[Interval] = None
        if self._overlapping:
            for interval in self._entries:
                start, end = interval
                if (start < target_id <= end) if start < end \
                        else (target_id > start or target_id <= end):
                    hit = interval
                    break
        else:
            wrap = self._wrap
            if wrap is not None and (target_id > wrap[0] or target_id <= wrap[1]):
                hit = wrap
            else:
                # The interval with the largest start below the target is
                # the only disjoint one that can contain it.
                i = bisect_left(self._starts, target_id) - 1
                if i >= 0 and target_id <= self._sorted[i][1]:
                    hit = self._sorted[i]
        if hit is None:
            self.misses += 1
            return None
        self._entries.move_to_end(hit)
        self.hits += 1
        return hit, self._entries[hit][0]

    # -- updates ------------------------------------------------------------

    def store(self, interval: Interval, owner: NodeRef, now: float) -> None:
        """Remember that ``owner`` is responsible for ``(start, end]``.

        Degenerate intervals (``start == end``) are refused: under the
        open-closed convention they cover the entire ring, which is only
        ever true for a single-node ring — not worth caching, and poisonous
        if a transiently islanded node advertised one.
        """
        if interval[0] == interval[1]:
            return
        entries = self._entries
        if interval in entries:
            entries.move_to_end(interval)
        else:
            while len(entries) >= self.capacity:
                self._unindex(entries.popitem(last=False)[0])
                self.invalidations += 1
            if not self._overlapping:
                self._index(interval)
        entries[interval] = (owner, now)
        expiry = self._expiry
        heappush(expiry, (now, interval))
        if len(expiry) > 2 * self.capacity + 16:
            # Compact the stale items away; amortized O(1) per store.
            self._expiry = [(stamp, key) for key, (_owner, stamp) in entries.items()]
            heapify(self._expiry)

    def invalidate_node(self, node: NodeRef) -> int:
        """Drop every entry whose owner is ``node`` (observed dead/departed)."""
        stale = [
            interval for interval, (owner, _t) in self._entries.items() if owner == node
        ]
        for interval in stale:
            del self._entries[interval]
            self._unindex(interval)
        self.invalidations += len(stale)
        if not self._entries:
            self._reset()
        return len(stale)

    def clear(self) -> None:
        """Drop everything (a membership change made all intervals suspect)."""
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._reset()

    # -- internals ----------------------------------------------------------

    def _expire(self, now: float) -> None:
        """Drop every entry older than the TTL, oldest stamp first."""
        ttl = self.ttl
        expiry = self._expiry
        entries = self._entries
        while expiry and now - expiry[0][0] > ttl:
            stamp, interval = heappop(expiry)
            entry = entries.get(interval)
            if entry is not None and entry[1] == stamp:
                del entries[interval]
                self._unindex(interval)
                self.invalidations += 1
        if not entries:
            self._reset()

    def _index(self, interval: Interval) -> None:
        """Add a new interval to the index, or drop the index on overlap."""
        start, end = interval
        starts = self._starts
        ordered = self._sorted
        wrap = self._wrap
        if start < end:
            i = bisect_left(starts, start)
            if (
                (wrap is not None and (start < wrap[1] or end > wrap[0]))
                or (i > 0 and ordered[i - 1][1] > start)
                or (i < len(starts) and starts[i] < end)
            ):
                self._drop_index(overlapping=True)
                return
            starts.insert(i, start)
            ordered.insert(i, interval)
        elif wrap is not None or (ordered and (ordered[0][0] < end or ordered[-1][1] > start)):
            self._drop_index(overlapping=True)
        else:
            self._wrap = interval

    def _unindex(self, interval: Interval) -> None:
        if self._overlapping:
            return
        start, end = interval
        if start < end:
            i = bisect_left(self._starts, start)
            del self._starts[i]
            del self._sorted[i]
        else:
            self._wrap = None

    def _reset(self) -> None:
        """The cache is empty: drop the expiry heap and re-enable the index."""
        self._expiry = []
        self._drop_index(overlapping=False)

    def _drop_index(self, *, overlapping: bool) -> None:
        self._starts = []
        self._sorted = []
        self._wrap = None
        self._overlapping = overlapping

    # -- diagnostics --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Hit/miss/invalidation counters plus the current size."""
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_fraction": (self.hits / total) if total else 0.0,
        }
