"""Aggregate function states for ScrubCentral.

Each aggregate in a query's SELECT list gets one state object per
(window, group).  States are incremental (O(1) or sketch-sized updates)
and mergeable, so partial results from parallel ingest paths combine.

Supported (paper Section 3.2): MIN, MAX, AVG, SUM, COUNT, plus the
probabilistic TOP-K (Space-Saving stream summary) and COUNT_DISTINCT
(HyperLogLog).

Scale-up under sampling: COUNT and SUM admit a Horvitz–Thompson style
scale factor (1 / event-rate × N/n over hosts), applied by the engine
via :meth:`AggregateState.scaled_result`.  AVG is a ratio of two scaled
quantities so the factors cancel; MIN/MAX/TOP-K/COUNT_DISTINCT are
reported unscaled from the sample (TOP-K item *counts* are scaled, the
ranking itself is sample-based).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from ..approx.hyperloglog import HyperLogLog
from ..approx.quantile import QuantileSketch
from ..approx.spacesaving import SpaceSaving
from ..query.ast import AggregateCall

__all__ = ["AggregateState", "make_state", "TOPK_CAPACITY_FACTOR", "HLL_PRECISION"]

#: The Space-Saving summary keeps this many counters per requested k.
TOPK_CAPACITY_FACTOR = 10
#: Default HyperLogLog precision (4096 registers, ~1.6% std error).
HLL_PRECISION = 12


class AggregateState:
    """Base class; subclasses implement update/merge/result."""

    __slots__ = ()

    #: Whether the state round-trips through a plain-value partial —
    #: the requirement for host-side pre-aggregation (sketch states
    #: could too, but their partials are not plain values; host
    #: aggregation is restricted to these five).
    supports_partials = False

    def update(self, value: Any) -> None:
        raise NotImplementedError

    def update_many(self, values: list) -> None:
        """Feed a pre-extracted value sequence (batched ingest hot path).

        Equivalent to ``update`` in iteration order — subclasses override
        only to hoist attribute lookups / use builtins, never to change
        the fold order, so batched and per-event ingest stay identical.
        """
        for value in values:
            self.update(value)

    def merge(self, other: "AggregateState") -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError

    def scaled_result(self, factor: float) -> Any:
        """Result scaled for sampling; default: scaling does not apply."""
        return self.result()

    def to_partial(self) -> Any:
        """A plain-value snapshot mergeable via :meth:`merge_partial`."""
        raise NotImplementedError(f"{type(self).__name__} has no partial form")

    def merge_partial(self, payload: Any) -> None:
        raise NotImplementedError(f"{type(self).__name__} has no partial form")


class CountState(AggregateState):
    __slots__ = ("count",)
    supports_partials = True

    def __init__(self) -> None:
        self.count = 0

    def update(self, value: Any) -> None:
        # COUNT(expr) counts non-NULL values; COUNT(*) passes a sentinel.
        if value is not None:
            self.count += 1

    def update_many(self, values: list) -> None:
        self.count += len(values) - values.count(None)

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, CountState)
        self.count += other.count

    def result(self) -> int:
        return self.count

    def scaled_result(self, factor: float) -> float | int:
        if factor == 1.0:
            return self.count
        return self.count * factor

    def to_partial(self) -> int:
        return self.count

    def merge_partial(self, payload: int) -> None:
        self.count += payload


class SumState(AggregateState):
    __slots__ = ("total", "any")
    supports_partials = True

    def __init__(self) -> None:
        self.total = 0.0
        self.any = False

    def update(self, value: Any) -> None:
        if value is not None:
            self.total += value
            self.any = True

    def update_many(self, values: list) -> None:
        # Accumulate in a local with the same left-fold association as the
        # per-event path — bit-identical float totals either way.
        total = self.total
        any_values = self.any
        for value in values:
            if value is not None:
                total += value
                any_values = True
        self.total = total
        self.any = any_values

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, SumState)
        self.total += other.total
        self.any = self.any or other.any

    def result(self) -> Optional[float]:
        return self.total if self.any else None

    def scaled_result(self, factor: float) -> Optional[float]:
        if not self.any:
            return None
        return self.total * factor

    def to_partial(self) -> tuple[float, bool]:
        return (self.total, self.any)

    def merge_partial(self, payload: tuple[float, bool]) -> None:
        total, any_values = payload
        self.total += total
        self.any = self.any or any_values


class AvgState(AggregateState):
    __slots__ = ("total", "count")
    supports_partials = True

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def update(self, value: Any) -> None:
        if value is not None:
            self.total += value
            self.count += 1

    def update_many(self, values: list) -> None:
        total = self.total
        count = self.count
        for value in values:
            if value is not None:
                total += value
                count += 1
        self.total = total
        self.count = count

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, AvgState)
        self.total += other.total
        self.count += other.count

    def result(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    # AVG is a ratio: the sampling scale factors cancel — no scaled variant.

    def to_partial(self) -> tuple[float, int]:
        return (self.total, self.count)

    def merge_partial(self, payload: tuple[float, int]) -> None:
        total, count = payload
        self.total += total
        self.count += count


class MinState(AggregateState):
    __slots__ = ("value",)
    supports_partials = True

    def __init__(self) -> None:
        self.value: Any = None

    def update(self, value: Any) -> None:
        if value is not None and (self.value is None or value < self.value):
            self.value = value

    def update_many(self, values: list) -> None:
        present = [v for v in values if v is not None]
        if present:
            low = min(present)
            if self.value is None or low < self.value:
                self.value = low

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, MinState)
        self.update(other.value)

    def result(self) -> Any:
        return self.value

    def to_partial(self) -> Any:
        return self.value

    def merge_partial(self, payload: Any) -> None:
        self.update(payload)


class MaxState(AggregateState):
    __slots__ = ("value",)
    supports_partials = True

    def __init__(self) -> None:
        self.value: Any = None

    def update(self, value: Any) -> None:
        if value is not None and (self.value is None or value > self.value):
            self.value = value

    def update_many(self, values: list) -> None:
        present = [v for v in values if v is not None]
        if present:
            high = max(present)
            if self.value is None or high > self.value:
                self.value = high

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, MaxState)
        self.update(other.value)

    def result(self) -> Any:
        return self.value

    def to_partial(self) -> Any:
        return self.value

    def merge_partial(self, payload: Any) -> None:
        self.update(payload)


class CountDistinctState(AggregateState):
    """COUNT_DISTINCT via HyperLogLog (paper [27]).

    The result is the estimated cardinality *of the sampled stream*;
    distinct counts do not scale linearly with the sampling rate, so no
    scale factor is applied (documented accuracy trade, Section 2).
    """

    __slots__ = ("sketch",)

    def __init__(self, precision: int = HLL_PRECISION) -> None:
        self.sketch = HyperLogLog(precision)

    def update(self, value: Any) -> None:
        if value is not None:
            self.sketch.add(_hashable(value))

    def update_many(self, values: list) -> None:
        self.sketch.update(
            [v if type(v) in _AS_IS else _hashable(v) for v in values if v is not None]
        )

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, CountDistinctState)
        self.sketch.merge(other.sketch)

    def result(self) -> int:
        return self.sketch.count()


class TopKState(AggregateState):
    """TOP-K via the Space-Saving stream summary (paper [36]).

    ``result()`` is a list of ``(item, count)`` pairs, largest first.
    """

    __slots__ = ("k", "summary")

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"TOP-K requires positive k, got {k}")
        self.k = k
        self.summary = SpaceSaving(max(k * TOPK_CAPACITY_FACTOR, 64))

    def update(self, value: Any) -> None:
        if value is not None:
            self.summary.offer(_hashable(value))

    def update_many(self, values: list) -> None:
        self.summary.update(
            [v if type(v) in _AS_IS else _hashable(v) for v in values if v is not None]
        )

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, TopKState)
        self.summary.merge(other.summary)

    def result(self) -> list[tuple[Any, int]]:
        return [(t.item, t.count) for t in self.summary.top(self.k)]

    def scaled_result(self, factor: float) -> list[tuple[Any, float | int]]:
        if factor == 1.0:
            return self.result()
        return [
            (t.item, t.count * factor) for t in self.summary.top(self.k)
        ]


class QuantileState(AggregateState):
    """QUANTILE(expr, q) via the mergeable relative-error sketch.

    The bucket-count merge is exact (integer addition), so serial and
    shard-pool executions report bit-identical quantiles regardless of
    how events were partitioned across workers.  Like MIN/MAX, the
    reported quantile is a property of the sampled values themselves and
    does not scale with the sampling rate — no scaled variant.
    """

    __slots__ = ("q", "sketch")

    def __init__(self, q: float) -> None:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"QUANTILE requires q in [0, 1], got {q}")
        self.q = q
        self.sketch = QuantileSketch()

    def update(self, value: Any) -> None:
        if value is not None:
            self.sketch.add(value)

    def update_many(self, values: list) -> None:
        add = self.sketch.add
        for value in values:
            if value is not None:
                add(value)

    def merge(self, other: "AggregateState") -> None:
        assert isinstance(other, QuantileState)
        self.sketch.merge(other.sketch)

    def result(self) -> Optional[float]:
        if self.sketch.count == 0:
            return None
        return self.sketch.quantile(self.q)


#: Value types :func:`_hashable` returns unchanged (floats are not: NaN).
_AS_IS = frozenset((int, str, bool, bytes, tuple))


def _hashable(value: Any) -> Any:
    """Values reaching sketches must be hashable; lists/dicts are folded
    into tuples so a list-typed field can still feed COUNT_DISTINCT."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value


def make_state(agg: AggregateCall) -> AggregateState:
    """Instantiate the state object for one aggregate call."""
    func = agg.func
    if func == "COUNT":
        return CountState()
    if func == "SUM":
        return SumState()
    if func == "AVG":
        return AvgState()
    if func == "MIN":
        return MinState()
    if func == "MAX":
        return MaxState()
    if func == "COUNT_DISTINCT":
        return CountDistinctState()
    if func == "TOP":
        assert agg.k is not None
        return TopKState(agg.k)
    if func == "QUANTILE":
        assert agg.q is not None
        return QuantileState(agg.q)
    raise ValueError(f"unsupported aggregate: {func}")
