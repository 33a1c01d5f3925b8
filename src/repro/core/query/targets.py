"""Target-host resolution for the ``@[...]`` construct.

Putting host targeting in the language — instead of a selection on a
host-name field — lets Scrub install the query only on the specified
hosts, so non-targeted hosts do no work at all (paper Section 3.2).
This module implements the matching semantics shared by the in-process
directory and the simulated cluster's registry, plus deterministic host
sampling.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence, TypeVar

from .ast import (
    DatacenterEq,
    ServerEq,
    ServersIn,
    ServiceIn,
    TargetAll,
    TargetAnd,
    TargetNode,
)
from .errors import ScrubValidationError

__all__ = [
    "target_matches",
    "rendezvous_order",
    "rendezvous_sample",
    "HostDescription",
]


class HostDescription:
    """The attributes targeting can reference for one host."""

    __slots__ = ("name", "services", "datacenter")

    def __init__(self, name: str, services: Iterable[str] = (), datacenter: str = "") -> None:
        self.name = name
        self.services = frozenset(services)
        self.datacenter = datacenter

    def __repr__(self) -> str:
        return (
            f"HostDescription({self.name!r}, services={sorted(self.services)}, "
            f"datacenter={self.datacenter!r})"
        )


def target_matches(target: TargetNode, host: HostDescription) -> bool:
    """Does *host* satisfy the target expression?

    Service and datacenter comparisons are case-insensitive (operators
    write ``BidServers`` or ``bidservers`` interchangeably); host names
    are compared exactly.
    """
    if isinstance(target, TargetAll):
        return True
    if isinstance(target, ServerEq):
        return host.name == target.host
    if isinstance(target, ServersIn):
        return host.name in target.hosts
    if isinstance(target, ServiceIn):
        wanted = {s.lower() for s in target.services}
        return any(s.lower() in wanted for s in host.services)
    if isinstance(target, DatacenterEq):
        return host.datacenter.lower() == target.datacenter.lower()
    if isinstance(target, TargetAnd):
        return all(target_matches(term, host) for term in target.terms)
    raise ScrubValidationError(f"unknown target node: {type(target).__name__}")


T = TypeVar("T")


def _rendezvous_score(seed: int, name: str) -> int:
    # blake2b, not hash(): the score must be identical across processes
    # and runs regardless of PYTHONHASHSEED.
    digest = hashlib.blake2b(
        f"{seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_order(items: Sequence[T], seed: int) -> list[T]:
    """Rank *items* by highest-random-weight (rendezvous) hash of their
    name (``str(item)``) under *seed*.

    Each item's rank depends only on ``(seed, name)``, never on the
    rest of the population — so when the fleet churns, a host joining or
    leaving shifts at most its own slot: every other host keeps its
    relative position.  That is the property a dynamic registry needs to
    keep ``@[...]`` host sampling stable under membership change, where
    a seeded shuffle of the whole population would reshuffle everyone on
    any change.
    """
    return sorted(
        items, key=lambda item: (_rendezvous_score(seed, str(item)), str(item)), reverse=True
    )


def rendezvous_sample(items: Sequence[T], rate: float, seed: int) -> list[T]:
    """Select ``ceil(rate * len(items))`` items by rendezvous rank,
    deterministically in *seed* so a query's host set is reproducible.

    At least one item is chosen whenever any is given — a query that
    silently targeted nobody would be a troubleshooting trap."""
    if not 0.0 < rate <= 1.0:
        raise ScrubValidationError(f"host sampling rate must be in (0, 1], got {rate}")
    ordered = rendezvous_order(items, seed)
    if not items or rate >= 1.0:
        return ordered
    return ordered[: max(1, math.ceil(rate * len(items)))]
