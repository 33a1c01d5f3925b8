"""ScrubCentral: windows, equi-join, group-by, aggregates, engine, results."""

from .aggregates import AggregateState, make_state
from .engine import DEFAULT_GRACE_SECONDS, CentralEngine, CentralStats
from .groupby import GroupByProcessor, WindowGroups
from .join import JoinBuffer, JoinedRow
from .pool import ShardPool
from .results import ResultRow, ResultSet, WindowResult
from .shm_ring import DEFAULT_RING_CAPACITY, RingUnavailable, ShmRing
from .window import (
    SlidingWindowAssigner,
    TumblingWindowAssigner,
    WindowAssigner,
    WindowTracker,
)

__all__ = [
    "AggregateState",
    "CentralEngine",
    "CentralStats",
    "DEFAULT_GRACE_SECONDS",
    "DEFAULT_RING_CAPACITY",
    "GroupByProcessor",
    "JoinBuffer",
    "JoinedRow",
    "ResultRow",
    "ResultSet",
    "RingUnavailable",
    "ShardPool",
    "ShmRing",
    "SlidingWindowAssigner",
    "TumblingWindowAssigner",
    "WindowAssigner",
    "WindowGroups",
    "WindowResult",
    "WindowTracker",
    "make_state",
]
