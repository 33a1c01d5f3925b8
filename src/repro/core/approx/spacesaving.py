"""Space-Saving stream summary for TOP-K queries.

Scrub's ``TOP-K`` aggregate uses the Space-Saving algorithm (Metwally,
Agrawal, El Abbadi — "Efficient Computation of Frequent and Top-k
Elements in Data Streams", ICDT 2005), cited as [36] in the paper.

The summary keeps at most ``capacity`` counters.  When a new item
arrives and the summary is full, the item replaces the counter with the
minimum count and inherits that count plus one; the displaced count is
remembered as the new counter's maximum possible *error*.  Guarantees:

* every item with true frequency > N/capacity is present;
* for each monitored item, ``count - error <= true count <= count``.

Counter bookkeeping uses the "stream summary" bucket structure from the
paper, giving O(1) amortised updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

__all__ = ["SpaceSaving", "TopItem"]


@dataclass(frozen=True)
class TopItem:
    """One reported heavy hitter: estimated count and max overestimation."""

    item: Hashable
    count: int
    error: int


class _Counter:
    __slots__ = ("item", "count", "error", "bucket", "prev", "next")

    def __init__(self, item: Hashable) -> None:
        self.item = item
        self.count = 0
        self.error = 0
        self.bucket: "_Bucket | None" = None
        self.prev: "_Counter | None" = None
        self.next: "_Counter | None" = None


class _Bucket:
    """All counters sharing one count value, as a doubly linked list."""

    __slots__ = ("value", "head", "prev", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.head: _Counter | None = None
        self.prev: "_Bucket | None" = None
        self.next: "_Bucket | None" = None


class SpaceSaving:
    """Space-Saving summary over a stream of hashable items."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._counters: dict[Hashable, _Counter] = {}
        self._min_bucket: _Bucket | None = None  # ascending linked bucket list
        self._total = 0

    # -- public API -----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def total(self) -> int:
        """Number of items offered so far."""
        return self._total

    def __len__(self) -> int:
        return len(self._counters)

    def offer(self, item: Hashable, count: int = 1) -> None:
        """Record *count* occurrences of *item*."""
        self.update((item,), count)

    def update(self, items: Iterable[Hashable], count: int = 1) -> None:
        """Record *count* occurrences of each of *items*, in order — the
        summary's one update routine.

        A monitored item's counter moves from its bucket towards the
        next ones, to the bucket holding its new count (made if absent,
        the emptied bucket reused in place when the order allows).  An
        unmonitored item gets a fresh counter while there is room, or
        else takes over the head counter of the minimum bucket, whose
        count it inherits as its error.  A counter always enters its
        bucket at the head, so each bucket keeps the same counters in
        the same order however the moves are made, and the same victims
        are evicted.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        counters = self._counters
        capacity = self._capacity
        total = self._total
        try:
            for item in items:
                total += count
                counter = counters.get(item)
                if counter is None and len(counters) < capacity:
                    counter = _Counter(item)
                    counters[item] = counter
                    value = count
                    before = None
                    node = self._min_bucket
                else:
                    if counter is None:
                        # Evict the minimum bucket's head counter; the
                        # newcomer inherits its count as error.
                        counter = self._min_bucket.head  # type: ignore[union-attr]
                        del counters[counter.item]
                        counter.item = item
                        counter.error = counter.count
                        counters[item] = counter
                    bucket = counter.bucket
                    value = counter.count + count
                    node = bucket.next
                    prev = counter.prev
                    nxt = counter.next
                    if prev is None and nxt is None:
                        if node is None or node.value > value:
                            # Alone in its bucket and the next bucket is
                            # past the new count: the bucket becomes it.
                            bucket.value = value
                            counter.count = value
                            continue
                        # The bucket empties: unlink it.
                        before = bucket.prev
                        if before is None:
                            self._min_bucket = node
                        else:
                            before.next = node
                        node.prev = before
                    else:
                        if prev is None:
                            bucket.head = nxt
                        else:
                            prev.next = nxt
                        if nxt is not None:
                            nxt.prev = prev
                        before = bucket
                counter.count = value
                while node is not None and node.value < value:
                    before = node
                    node = node.next
                if node is not None and node.value == value:
                    target = node
                else:
                    target = _Bucket(value)
                    target.prev = before
                    target.next = node
                    if before is None:
                        self._min_bucket = target
                    else:
                        before.next = target
                    if node is not None:
                        node.prev = target
                # Enter the bucket at its head.
                head = target.head
                counter.bucket = target
                counter.prev = None
                counter.next = head
                if head is not None:
                    head.prev = counter
                target.head = counter
        finally:
            self._total = total

    def estimate(self, item: Hashable) -> int:
        """Estimated count (upper bound on true count); 0 if unmonitored."""
        counter = self._counters.get(item)
        return counter.count if counter is not None else 0

    def top(self, k: int) -> list[TopItem]:
        """The k monitored items with the highest estimated counts."""
        if k <= 0:
            return []
        items = sorted(
            (TopItem(c.item, c.count, c.error) for c in self._counters.values()),
            key=_rank_key,
        )
        return items[:k]

    def merge(self, other: "SpaceSaving") -> None:
        """Merge another summary into this one (used when ScrubCentral
        combines per-window partial sketches).  The merged summary keeps
        the Space-Saving error semantics: counts are upper bounds."""
        counters = self._counters
        for counter in list(other._counters.values()):
            self.update((counter.item,), counter.count)
            # update() adds error only on eviction; carry the incoming
            # error explicitly.
            counters[counter.item].error += counter.error

    # -- pickling ---------------------------------------------------------------

    def __reduce__(self):
        # The bucket structure is a web of doubly linked objects; default
        # pickling would recurse counter-by-counter (and can exceed the
        # recursion limit on large summaries).  Serialize the flat counter
        # table instead and rebuild the buckets on load — this is the
        # shard-pool boundary for TOP-K partials.
        counters = sorted(
            ((c.item, c.count, c.error) for c in self._counters.values()),
            key=lambda t: -t[1],
        )
        return (_rebuild_spacesaving, (self._capacity, self._total, counters))


def _rank_key(t: TopItem) -> tuple:
    """Deterministic total order for reported heavy hitters: by estimated
    count (desc), then error (asc — tighter bounds first), then a stable
    item rendering, so rankings are independent of insertion order (the
    same summary reports the same TOP-K after a pickle round-trip or a
    shard merge)."""
    return (-t.count, t.error, str(t.item))


def _rebuild_spacesaving(
    capacity: int, total: int, counters: list[tuple]
) -> SpaceSaving:
    summary = SpaceSaving(capacity)
    # Descending count order makes every bucket insert O(1): each new
    # value lands at the front of the ascending bucket list.
    for item, count, error in counters:
        summary.update((item,), count)
        summary._counters[item].error = error
    summary._total = total
    return summary
