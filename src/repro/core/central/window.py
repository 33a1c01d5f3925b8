"""Tumbling-window bookkeeping for ScrubCentral.

Scrub supports tumbling windows (paper Section 3.2; sliding windows are
noted as an easy extension and are provided by ``SlidingWindowAssigner``
below).  Window assignment is by event timestamp; windows close when the
engine's watermark — driven by the caller's periodic ``advance(now)`` —
passes the window end plus a grace period that absorbs host flush
delays.  Events arriving after close are counted as late and dropped:
bounding central memory is part of keeping ScrubCentral cheap enough to
run as a small dedicated cluster (Section 8.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["WindowAssigner", "TumblingWindowAssigner", "SlidingWindowAssigner", "WindowTracker"]


@dataclass(frozen=True)
class WindowAssigner:
    """Maps an event timestamp to the window indices it belongs to."""

    length: float

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"window length must be positive, got {self.length}")

    def assign(self, timestamp: float) -> Iterable[int]:
        raise NotImplementedError

    def start_of(self, index: int) -> float:
        raise NotImplementedError

    def end_of(self, index: int) -> float:
        raise NotImplementedError


class TumblingWindowAssigner(WindowAssigner):
    """Non-overlapping fixed-length windows: index = floor(ts / length)."""

    def assign(self, timestamp: float) -> Iterable[int]:
        return (int(timestamp // self.length),)

    def start_of(self, index: int) -> float:
        return index * self.length

    def end_of(self, index: int) -> float:
        return (index + 1) * self.length


@dataclass(frozen=True)
class SlidingWindowAssigner(WindowAssigner):
    """Overlapping windows of ``length`` sliding by ``slide``.

    An event belongs to every window whose span covers its timestamp;
    window *i* covers [i·slide, i·slide + length).  The paper's "easy
    extension" — the rest of the pipeline is window-index agnostic.
    """

    slide: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slide <= 0:
            raise ValueError(f"slide must be positive, got {self.slide}")
        if self.slide > self.length:
            raise ValueError("slide must not exceed the window length")

    def assign(self, timestamp: float) -> Iterable[int]:
        last = int(timestamp // self.slide)
        first = int((timestamp - self.length) // self.slide) + 1
        return range(max(first, 0) if timestamp >= 0 else first, last + 1)

    def start_of(self, index: int) -> float:
        return index * self.slide

    def end_of(self, index: int) -> float:
        return index * self.slide + self.length


class WindowTracker:
    """Tracks which window indices are open, closed, or not yet seen."""

    def __init__(self, assigner: WindowAssigner, grace_seconds: float = 0.0) -> None:
        if grace_seconds < 0:
            raise ValueError("grace must be non-negative")
        self.assigner = assigner
        self.grace = grace_seconds
        self._open: set[int] = set()
        self._closed_upto: int | None = None  # all indices <= this are closed
        self.late_events = 0

    @property
    def open_windows(self) -> tuple[int, ...]:
        return tuple(sorted(self._open))

    def observe(self, timestamp: float) -> tuple[int, ...]:
        """Register an event timestamp; returns the window indices it
        falls into, or an empty tuple (and a late count) if all its
        windows already closed."""
        live = self.open_at(timestamp)
        if not live:
            self.late_events += 1
        return live

    def open_at(self, timestamp: float) -> tuple[int, ...]:
        """Open the not-yet-closed windows covering *timestamp* and return
        them; unlike :meth:`observe`, finding them all closed is not late."""
        live = tuple(i for i in self.assigner.assign(timestamp) if not self._is_closed(i))
        self._open.update(live)
        return live

    def _is_closed(self, index: int) -> bool:
        return self._closed_upto is not None and index <= self._closed_upto

    def closable(self, now: float) -> tuple[int, ...]:
        """Open windows whose end + grace has passed, in order."""
        return tuple(
            sorted(i for i in self._open if self.assigner.end_of(i) + self.grace <= now)
        )

    def close(self, index: int) -> None:
        """Mark *index* closed.  Indices must be closed in ascending order
        relative to the high-water mark; skipped (never-seen) indices
        below it are closed implicitly."""
        self._open.discard(index)
        if self._closed_upto is None or index > self._closed_upto:
            self._closed_upto = index

    def close_all(self) -> tuple[int, ...]:
        """Close every open window (query span ended); returns them in order."""
        indices = tuple(sorted(self._open))
        for index in indices:
            self.close(index)
        return indices

    def merge(self, other: "WindowTracker") -> None:
        """Fold another tracker for the same query into this one: union of
        open windows, the further of the two high-water marks, summed late
        counts.  The shard-merge contract (docs/SCALING.md): merging then
        closing is equivalent to one tracker having observed both streams."""
        self._open |= other._open
        if other._closed_upto is not None and (
            self._closed_upto is None or other._closed_upto > self._closed_upto
        ):
            self._closed_upto = other._closed_upto
        self._open = {i for i in self._open if not self._is_closed(i)}
        self.late_events += other.late_events
