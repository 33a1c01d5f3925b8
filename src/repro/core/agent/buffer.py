"""Bounded event buffer: drop, never block.

"At all levels of the system, accuracy is traded for minimal impact on
the hosts" (paper abstract).  The agent's outbound buffer is strictly
bounded; when the flusher cannot keep up, *new events are dropped* and
counted, and the application thread never blocks or allocates more.
Drop counts are reported to ScrubCentral so the troubleshooter knows
results are partial.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Generic, TypeVar

__all__ = ["BoundedBuffer"]

T = TypeVar("T")


class BoundedBuffer(Generic[T]):
    """A thread-safe FIFO with a hard capacity and drop accounting.

    ``offer`` is O(1) and never blocks; when full it rejects the new
    item (drop-newest: the cheapest policy — no shifting, and under
    sustained overload the retained prefix is an unbiased-enough window
    sample for troubleshooting purposes).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._items: deque[T] = deque()
        self._dropped = 0
        self._offered = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def dropped(self) -> int:
        """Items rejected because the buffer was full."""
        return self._dropped

    @property
    def offered(self) -> int:
        """Total items ever offered (accepted + dropped)."""
        return self._offered

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, item: T) -> bool:
        """Append *item*; returns False (and counts a drop) when full."""
        with self._lock:
            self._offered += 1
            if len(self._items) >= self._capacity:
                self._dropped += 1
                return False
            self._items.append(item)
            return True

    def offer_unlocked(self, item: T) -> bool:
        """``offer`` without taking the buffer lock.

        For callers that already serialize every producer *and* the
        drainer under their own lock (``ScrubAgent`` holds its RLock
        around both ``log()`` and the drain in ``flush()``), the
        internal lock is pure overhead on the per-event hot path.
        Accounting is identical to ``offer``.
        """
        self._offered += 1
        if len(self._items) >= self._capacity:
            self._dropped += 1
            return False
        self._items.append(item)
        return True

    def drain(self, max_items: int | None = None) -> list[T]:
        """Remove and return up to *max_items* items (all, when None)."""
        with self._lock:
            if max_items is None or max_items >= len(self._items):
                out = list(self._items)
                self._items.clear()
                return out
            out = [self._items.popleft() for _ in range(max_items)]
            return out

    def clear(self) -> int:
        """Discard all buffered items; returns how many were discarded."""
        with self._lock:
            n = len(self._items)
            self._items.clear()
            return n
