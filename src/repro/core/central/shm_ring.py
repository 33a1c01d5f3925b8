"""Single-producer/single-consumer shared-memory ring for shard ingest.

The parallel central's last two hot-path copies are the per-shard
``bytes`` join and the pipe write (docs/SCALING.md §"Shared-memory ring
ingest").  This module removes both: the parent writes each shard's wire
bytes **once**, straight from the scanned frame buffer into a per-worker
:mod:`multiprocessing.shared_memory` segment, and ships only a tiny
descriptor of integers over the existing pipe.  The worker decodes
events directly from a ``memoryview`` of the ring — the payload bytes
cross the process boundary zero times.

Layout (one ring per worker, parent = producer, worker = consumer)::

    byte 0        8        16          24          32       64
    +--------+--------+------------+----------+---------+----
    |  head  |  tail  | generation | capacity | (spare) | data ...
    +--------+--------+------------+----------+---------+----
       u64      u64       u64          u64      zeroes    `capacity` bytes

``head`` and ``tail`` are **monotonic** byte cursors, never wrapped:
the physical write position is ``head % capacity`` and the occupied
span is ``head - tail``.  The producer alone writes ``head``, the
consumer alone writes ``tail``; each is a single aligned 8-byte store,
which the platforms we run on (x86-64, aarch64) make atomic — no locks,
no futexes, no torn reads.  Pipe-message FIFO ordering provides the
happens-before edge: the parent's ``memcpy`` into the ring completes
before the descriptor is sent, and the descriptor arrives before the
worker looks at the bytes.

A payload that would straddle the physical end of the ring is not
split: the producer *wastes the tail* (skips ``capacity - head %
capacity`` bytes) and writes at offset 0, so every payload is one
contiguous slice and the consumer never reassembles.  Because the
waste makes the head advance underivable from the payload length, the
descriptor carries the explicit post-allocation ``release`` cursor the
consumer must store into ``tail`` once it has decoded the bytes.

``generation`` tags the ring with the worker generation that owns it.
Every respawn gets a **fresh** ring (the old segment is unlinked), so a
replacement worker can never read a stale cursor or half-written
payload from its predecessor's life; :meth:`attach` refuses a
generation mismatch outright.
"""

from __future__ import annotations

import struct
from typing import Optional

__all__ = ["ShmRing", "RingUnavailable", "HEADER_SIZE", "DEFAULT_RING_CAPACITY"]

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory
    from multiprocessing import util as _mp_util
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    shared_memory = None  # type: ignore[assignment]
    _mp_util = None  # type: ignore[assignment]

#: Header bytes before the data region (cursor cache-line, padded).
HEADER_SIZE = 64

#: Default per-worker ring size: 1 MiB holds hundreds of typical host
#: flushes; ``scrubd --ring-kib`` and ``ShardPool(ring_capacity=...)``
#: override it.
DEFAULT_RING_CAPACITY = 1 << 20

_U64 = struct.Struct("<Q")

_OFF_HEAD = 0
_OFF_TAIL = 8
_OFF_GENERATION = 16
_OFF_CAPACITY = 24


class RingUnavailable(RuntimeError):
    """Shared-memory rings cannot be used here (platform or attach failure)."""


class ShmRing:
    """One SPSC byte ring over a named ``SharedMemory`` segment.

    The producer side (parent) calls :meth:`try_reserve`, copies payload
    slices into :attr:`data`, and sends the returned ``(offset,
    release)`` pair in a descriptor.  The consumer side (worker) calls
    :meth:`payload` to view the bytes and :meth:`release` once it is
    done with them.  Neither side ever blocks on the other: a reserve
    that does not fit returns ``None`` and the caller spills to the
    pipe-bytes path.
    """

    __slots__ = (
        "shm", "capacity", "generation", "data", "high_water", "_head",
        "_owner", "__weakref__",  # register_after_fork holds a weakref
    )

    def __init__(self, shm, capacity: int, generation: int, owner: bool) -> None:
        self.shm = shm
        self.capacity = capacity
        self.generation = generation
        self._owner = owner
        #: Writable view of the data region; slice assignments into it are
        #: the single copy on the shm path.
        self.data = memoryview(shm.buf)[HEADER_SIZE : HEADER_SIZE + capacity]
        #: Producer-local high-water mark of occupied bytes.
        self.high_water = 0
        self._head = _U64.unpack_from(shm.buf, _OFF_HEAD)[0]
        if _mp_util is not None:
            # A forked worker inherits every ring the parent holds (its
            # own and its siblings') as copy-on-write objects it must
            # never touch; unmap them in the child right after the fork,
            # or their exported `data` views make the interpreter-exit
            # finalizer raise BufferError.  The child's own transport
            # ring is a separate attach(), unaffected by this close.
            _mp_util.register_after_fork(self, ShmRing.close)

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(cls, capacity: int, generation: int) -> "ShmRing":
        """Producer side: allocate a fresh zeroed ring."""
        if shared_memory is None:
            raise RingUnavailable("multiprocessing.shared_memory is unavailable")
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        try:
            shm = shared_memory.SharedMemory(create=True, size=HEADER_SIZE + capacity)
        except Exception as exc:  # noqa: BLE001 - e.g. /dev/shm missing or full
            raise RingUnavailable(f"{type(exc).__name__}: {exc}") from exc
        shm.buf[:HEADER_SIZE] = b"\0" * HEADER_SIZE
        _U64.pack_into(shm.buf, _OFF_GENERATION, generation)
        _U64.pack_into(shm.buf, _OFF_CAPACITY, capacity)
        return cls(shm, capacity, generation, owner=True)

    @classmethod
    def attach(cls, name: str, generation: int) -> "ShmRing":
        """Consumer side: map an existing ring by name.

        The worker processes share the parent's :mod:`resource_tracker`
        (its fd is inherited under both fork and spawn), so the attach's
        register of an already-registered name is a no-op and the
        parent's ``unlink()`` stays the single deregistration — the
        consumer must never unregister or unlink itself.
        """
        if shared_memory is None:
            raise RingUnavailable("multiprocessing.shared_memory is unavailable")
        try:
            shm = shared_memory.SharedMemory(name=name)
        except Exception as exc:  # noqa: BLE001
            raise RingUnavailable(f"{type(exc).__name__}: {exc}") from exc
        capacity = _U64.unpack_from(shm.buf, _OFF_CAPACITY)[0]
        ring_generation = _U64.unpack_from(shm.buf, _OFF_GENERATION)[0]
        if ring_generation != generation:
            shm.close()
            raise RingUnavailable(
                f"ring generation mismatch: segment has {ring_generation}, "
                f"worker expected {generation}"
            )
        return cls(shm, capacity, generation, owner=False)

    @property
    def name(self) -> str:
        return self.shm.name

    def close(self) -> None:
        """Unmap this side's view (consumer exit path)."""
        try:
            self.data.release()
        except BufferError:  # pragma: no cover - exported slice still alive
            pass
        try:
            self.shm.close()
        except (BufferError, OSError):  # pragma: no cover - defensive
            pass

    def destroy(self) -> None:
        """Unmap and, on the owning side, unlink the segment.

        The producer calls this only after the consumer process has been
        joined (or killed): the join is the drain — every descriptor the
        worker acked is accounted and no process still maps the segment,
        so the unlink reclaims it without leaking or racing a reader.
        """
        self.close()
        if self._owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            except OSError:  # pragma: no cover - defensive
                pass

    # -- producer side ---------------------------------------------------------

    def try_reserve(self, length: int) -> Optional[tuple[int, int]]:
        """Reserve ``length`` contiguous bytes; ``None`` means spill.

        Returns ``(offset, release)``: copy the payload to
        ``data[offset:offset+length]`` and put ``release`` in the
        descriptor — it is the head cursor after this allocation,
        including any wrap waste, and is what the consumer stores into
        ``tail`` when done.
        """
        if length <= 0 or length > self.capacity:
            return None
        head = self._head
        pos = head % self.capacity
        if pos + length > self.capacity:
            # Straddles the physical end: waste the tail, write at 0.
            allocation = (self.capacity - pos) + length
            offset = 0
        else:
            allocation = length
            offset = pos
        tail = _U64.unpack_from(self.shm.buf, _OFF_TAIL)[0]
        if (head - tail) + allocation > self.capacity:
            return None
        new_head = head + allocation
        self._head = new_head
        _U64.pack_into(self.shm.buf, _OFF_HEAD, new_head)
        depth = new_head - tail
        if depth > self.high_water:
            self.high_water = depth
        return offset, new_head

    def depth(self) -> int:
        """Producer view: bytes reserved but not yet released."""
        tail = _U64.unpack_from(self.shm.buf, _OFF_TAIL)[0]
        return self._head - tail

    def stats(self) -> dict[str, int]:
        return {
            "capacity": self.capacity,
            "depth": self.depth(),
            "high_water": self.high_water,
        }

    # -- consumer side ---------------------------------------------------------

    def payload(self, offset: int, length: int) -> memoryview:
        """View ``length`` bytes at ``offset`` — decode *before* releasing."""
        return self.data[offset : offset + length]

    def release(self, upto: int) -> None:
        """Return every byte up to the ``release`` cursor to the producer.

        Must be called for **every** descriptor, even ones whose query
        failed or vanished — skipping one would strand its bytes and jam
        the ring into permanent spill.
        """
        _U64.pack_into(self.shm.buf, _OFF_TAIL, upto)
