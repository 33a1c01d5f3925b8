"""The per-item sketches: the differential oracle for the sketch kernels.

Production updates each sketch through one batch routine —
``HyperLogLog.update(items)`` with the integer hash inlined, and
``SpaceSaving.update(items, count)``, which moves a counter from its own
bucket towards the next ones.  This module keeps the code those kernels
replaced, as it was first written, one item at a time: ``_hash64`` and
``HyperLogLog.add`` as separate calls, and the Space-Saving bucket list
maintained by ``_detach`` / ``_attach``, which walks from the minimum
bucket on every increment.  ``tests/core/test_sketch_differential.py``
holds the kernels to it state for state (registers; totals, counters,
errors and bucket order), and ``reference_engine.py`` runs its per-row
updates through it, so the reference engine stays independent of the
kernels it checks.

The oracle classes subclass the production sketches and override only
the update paths, so estimates, ``top`` and pickling stay shared.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Hashable, Iterable

from repro.core.approx.hyperloglog import _HASH_BITS, HyperLogLog
from repro.core.approx.spacesaving import SpaceSaving, _Bucket, _Counter
from repro.core.central.aggregates import CountDistinctState, TopKState, make_state
from repro.core.query.ast import AggregateCall

__all__ = [
    "OracleHyperLogLog",
    "OracleSpaceSaving",
    "hll_state",
    "oracle_rebuild",
    "oracle_state",
    "spacesaving_state",
]


def _hash64(item: Hashable) -> int:
    """Stable 64-bit hash of an arbitrary hashable item."""
    if isinstance(item, bytes):
        data = b"b" + item
    elif isinstance(item, str):
        data = b"s" + item.encode()
    elif isinstance(item, bool):
        data = b"o" + bytes([item])
    elif isinstance(item, int):
        data = b"i" + item.to_bytes(16, "little", signed=True)
    elif isinstance(item, float):
        data = b"f" + struct.pack("<d", item)
    elif item is None:
        data = b"n"
    else:
        data = b"r" + repr(item).encode()
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "little")


class OracleHyperLogLog(HyperLogLog):
    """``HyperLogLog`` updated one item at a time."""

    __slots__ = ()

    def add(self, item: Hashable) -> None:
        h = _hash64(item)
        index = h >> (_HASH_BITS - self._precision)
        remainder = h << self._precision & (1 << _HASH_BITS) - 1
        # Rank: position of the leftmost 1-bit of the remainder, 1-based,
        # over the (64 - precision) remaining bits.
        if remainder == 0:
            rank = _HASH_BITS - self._precision + 1
        else:
            rank = _HASH_BITS - remainder.bit_length() + 1
        if rank > self._registers[index]:
            self._registers[index] = rank

    def update(self, items: Iterable[Hashable]) -> None:
        for item in items:
            self.add(item)

    def merge(self, other: HyperLogLog) -> None:
        if other._precision != self._precision:
            raise ValueError(
                f"cannot merge HLL precisions {self._precision} and {other._precision}"
            )
        ours = self._registers
        theirs = other._registers
        for i in range(self._m):
            if theirs[i] > ours[i]:
                ours[i] = theirs[i]


class OracleSpaceSaving(SpaceSaving):
    """``SpaceSaving`` updated one item at a time through the bucket
    list's detach / find-or-create / attach steps."""

    def offer(self, item: Hashable, count: int = 1) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._total += count
        counter = self._counters.get(item)
        if counter is not None:
            self._increment(counter, count)
            return
        if len(self._counters) < self._capacity:
            counter = _Counter(item)
            self._counters[item] = counter
            self._attach(counter, 0)
            self._increment(counter, count)
            return
        # Evict the minimum counter; the newcomer inherits its count as error.
        victim = self._min_bucket.head  # type: ignore[union-attr]
        assert victim is not None
        del self._counters[victim.item]
        victim_error = victim.count
        victim.item = item
        victim.error = victim_error
        self._counters[item] = victim
        self._increment(victim, count)

    def update(self, items: Iterable[Hashable], count: int = 1) -> None:
        for item in items:
            self.offer(item, count)

    def merge(self, other: SpaceSaving) -> None:
        for counter in list(other._counters.values()):
            existing = self._counters.get(counter.item)
            if existing is not None:
                existing.error += counter.error
                self._increment(existing, counter.count)
                self._total += counter.count
            else:
                self.offer(counter.item, counter.count)
                merged = self._counters.get(counter.item)
                if merged is not None:
                    merged.error += counter.error

    # -- bucket list maintenance ------------------------------------------------

    def _attach(self, counter: _Counter, value: int) -> None:
        bucket = self._find_or_create_bucket(value)
        counter.bucket = bucket
        counter.prev = None
        counter.next = bucket.head
        if bucket.head is not None:
            bucket.head.prev = counter
        bucket.head = counter

    def _detach(self, counter: _Counter) -> None:
        bucket = counter.bucket
        assert bucket is not None
        if counter.prev is not None:
            counter.prev.next = counter.next
        else:
            bucket.head = counter.next
        if counter.next is not None:
            counter.next.prev = counter.prev
        counter.prev = counter.next = None
        counter.bucket = None
        if bucket.head is None:
            self._remove_bucket(bucket)

    def _find_or_create_bucket(self, value: int) -> _Bucket:
        prev: _Bucket | None = None
        node = self._min_bucket
        while node is not None and node.value < value:
            prev = node
            node = node.next
        if node is not None and node.value == value:
            return node
        bucket = _Bucket(value)
        bucket.prev = prev
        bucket.next = node
        if prev is not None:
            prev.next = bucket
        else:
            self._min_bucket = bucket
        if node is not None:
            node.prev = bucket
        return bucket

    def _remove_bucket(self, bucket: _Bucket) -> None:
        if bucket.prev is not None:
            bucket.prev.next = bucket.next
        else:
            self._min_bucket = bucket.next
        if bucket.next is not None:
            bucket.next.prev = bucket.prev

    def _increment(self, counter: _Counter, count: int) -> None:
        self._detach(counter)
        counter.count += count
        self._attach(counter, counter.count)


def oracle_rebuild(capacity: int, total: int, counters: list[tuple]) -> OracleSpaceSaving:
    """Rebuild a summary from its pickled counter table (descending
    count order), attaching each counter at its bucket's head."""
    summary = OracleSpaceSaving(capacity)
    summary._total = total
    for item, count, error in counters:
        counter = _Counter(item)
        counter.count = count
        counter.error = error
        summary._counters[item] = counter
        summary._attach(counter, count)
    return summary


def oracle_state(agg: AggregateCall) -> Any:
    """``make_state``, with the sketch states' sketches swapped for the
    oracle's (every other state is production's)."""
    state = make_state(agg)
    if isinstance(state, CountDistinctState):
        state.sketch = OracleHyperLogLog(state.sketch.precision)
    elif isinstance(state, TopKState):
        state.summary = OracleSpaceSaving(state.summary.capacity)
    return state


# -- state snapshots ------------------------------------------------------------


def _typed(item: Any) -> tuple:
    """An item with its type: ``1`` and ``True`` compare equal, but a
    summary keyed by one is not the summary keyed by the other."""
    return (type(item).__name__, repr(item))


def hll_state(sketch: HyperLogLog) -> bytes:
    return bytes(sketch._registers)


def spacesaving_state(summary: SpaceSaving) -> tuple:
    """Everything observable about a summary: its total, its counters in
    table order (typed item, count, error), and its buckets in ascending
    order, each as (value, typed items from the head).  Walking the
    lists also checks every back link and bucket pointer."""
    counters = [
        (_typed(key), _typed(c.item), c.count, c.error)
        for key, c in summary._counters.items()
    ]
    buckets = []
    seen = 0
    prev_bucket = None
    bucket = summary._min_bucket
    while bucket is not None:
        assert bucket.prev is prev_bucket, "broken bucket back link"
        assert bucket.head is not None, "empty bucket left in the list"
        if prev_bucket is not None:
            assert prev_bucket.value < bucket.value, "buckets out of order"
        items = []
        prev_counter = None
        counter = bucket.head
        while counter is not None:
            assert counter.prev is prev_counter, "broken counter back link"
            assert counter.bucket is bucket, "counter points at another bucket"
            assert counter.count == bucket.value, "counter count is not its bucket's"
            items.append(_typed(counter.item))
            prev_counter = counter
            counter = counter.next
        seen += len(items)
        buckets.append((bucket.value, items))
        prev_bucket = bucket
        bucket = bucket.next
    assert seen == len(summary._counters), "a counter is in no bucket"
    return summary._total, counters, buckets
