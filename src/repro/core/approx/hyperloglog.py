"""HyperLogLog cardinality estimation for COUNT_DISTINCT.

Scrub computes cardinality counts with HyperLogLog (paper cites Heule,
Nunkesser, Hall — "HyperLogLog in Practice", EDBT 2013, [27]).  This
implementation follows HLL++ without the sparse representation:

* 64-bit hashing (no large-range correction needed);
* empirical bias correction is approximated by linear counting for
  small cardinalities, switching to the raw estimator past the standard
  2.5·m threshold;
* registers merge by pointwise max, so per-window partial sketches from
  ScrubCentral workers combine losslessly.

The standard error is ``1.04 / sqrt(m)`` with ``m = 2**precision``
registers (~1.6% at the default precision of 12).
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Hashable, Iterable

__all__ = ["HyperLogLog"]

_HASH_BITS = 64


def _hash_input(item: Hashable) -> bytes:
    """The type-tagged bytes an item's 64-bit hash is taken over.

    Python's builtin ``hash`` is salted per process for strings, which
    would make sketches non-mergeable across host processes; a blake2b
    digest of these bytes is stable.  The tag keeps ``1``, ``True``,
    ``1.0`` and ``"1"`` apart.  An ``int`` outside the signed 128-bit
    range raises ``OverflowError``.
    """
    if isinstance(item, bytes):
        return b"b" + item
    if isinstance(item, str):
        return b"s" + item.encode()
    if isinstance(item, bool):
        return b"o" + bytes([item])
    if isinstance(item, int):
        return b"i" + item.to_bytes(16, "little", signed=True)
    if isinstance(item, float):
        return b"f" + struct.pack("<d", item)
    if item is None:
        return b"n"
    return b"r" + repr(item).encode()


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog:
    """A HyperLogLog sketch with ``2**precision`` one-byte registers."""

    __slots__ = ("_precision", "_m", "_registers")

    def __init__(self, precision: int = 12) -> None:
        if not 4 <= precision <= 18:
            raise ValueError(f"precision must be in [4, 18], got {precision}")
        self._precision = precision
        self._m = 1 << precision
        self._registers = bytearray(self._m)

    @property
    def precision(self) -> int:
        return self._precision

    @property
    def register_count(self) -> int:
        return self._m

    @property
    def standard_error(self) -> float:
        return 1.04 / math.sqrt(self._m)

    def add(self, item: Hashable) -> None:
        self.update((item,))

    def update(self, items: Iterable[Hashable]) -> None:
        """Fold *items* into the registers, in order — the sketch's one
        update routine.

        An item's hash is the first 8 bytes of blake2b over its
        :func:`_hash_input`, read little-endian; the top ``precision``
        bits pick the register and the rank is the 1-based position of
        the leftmost 1-bit in the remaining ``64 - precision`` bits
        (``64 - precision + 1`` when they are all zero).  The ``int``
        case, the hot one, is inlined.
        """
        shift = _HASH_BITS - self._precision
        low = (1 << shift) - 1
        top_rank = shift + 1
        registers = self._registers
        blake2b = hashlib.blake2b
        from_bytes = int.from_bytes
        for item in items:
            if type(item) is int:
                data = b"i" + item.to_bytes(16, "little", signed=True)
            else:
                data = _hash_input(item)
            h = from_bytes(blake2b(data, digest_size=8).digest(), "little")
            rank = top_rank - (h & low).bit_length()
            index = h >> shift
            if rank > registers[index]:
                registers[index] = rank

    def cardinality(self) -> float:
        """Estimated number of distinct items added."""
        m = self._m
        inverse_sum = 0.0
        zeros = 0
        for register in self._registers:
            inverse_sum += 2.0 ** -register
            if register == 0:
                zeros += 1
        raw = _alpha(m) * m * m / inverse_sum
        if raw <= 2.5 * m and zeros:
            # Linear counting for the small range (HLL++ behaviour when the
            # raw estimate is below threshold and empty registers remain).
            return m * math.log(m / zeros)
        return raw

    def count(self) -> int:
        """Estimated cardinality rounded to an integer."""
        return int(round(self.cardinality()))

    def merge(self, other: "HyperLogLog") -> None:
        """Pointwise-max merge; both sketches must share a precision."""
        if other._precision != self._precision:
            raise ValueError(
                f"cannot merge HLL precisions {self._precision} and {other._precision}"
            )
        self._registers[:] = bytes(map(max, self._registers, other._registers))

    def copy(self) -> "HyperLogLog":
        clone = HyperLogLog(self._precision)
        clone._registers = bytearray(self._registers)
        return clone

    def __len__(self) -> int:
        return self.count()
