"""The four workloads, their seeded event stream, and the correctness oracle.

Everything here is closed-form in the event index ``i`` and ``--seed``:
the same seed gives the same stream, and the oracle's expected totals
come from enumerating one period of that stream, never from the system
under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

CHUNK = 100  #: events per open-loop chunk (one timed ``log()`` burst)
HOST = "h0"  #: the one agent

BID_FIELDS = [
    ("exchange_id", "long"),
    ("city", "string"),
    ("bid_price", "double"),
    ("user_id", "long"),
]
PV_FIELDS = [("url", "string"), ("latency_ms", "double")]
SCHEMAS = (("bid", BID_FIELDS), ("pv", PV_FIELDS))

CITIES = (
    "amsterdam", "berlin", "chicago", "denver",
    "edinburgh", "fukuoka", "geneva", "hanoi",
)
URLS = ("/", "/search", "/item", "/cart", "/checkout")

#: 1100 ms windows: scrubd's 0.25 s tick keeps a constant phase against
#: whole-second windows, so every sample of a run would share one tick
#: phase; 1100 mod 250 = 100 sweeps the phase in five windows.
WINDOW_SECONDS = 1.1
_TAIL = f" window {round(WINDOW_SECONDS * 1000)}ms{{group}}{{sample}} duration 600s;"


@dataclass(frozen=True)
class QuerySpec:
    """One query of a workload plus what the oracle needs to know about it."""

    text: str
    #: ``bid`` field the rows are grouped by (the first output column).
    group: Optional[str] = None
    #: Selection on a ``bid`` payload, mirrored from the WHERE clause.
    where: Callable[[dict], bool] = lambda _payload: True
    #: Event-sampled: only the summed COUNT(*) estimate is checked (±5 %).
    sampled: bool = False


def _query(select: str, where: str = "", group: str = "", sample: str = "") -> str:
    return (
        f"select {select} from bid"
        + (f" where {where}" if where else "")
        + _TAIL.format(
            group=f" group by {group}" if group else "",
            sample=f" sample events {sample}" if sample else "",
        )
    )


HEAVY_QUERY = QuerySpec(
    _query(
        "bid.exchange_id, COUNT(*), SUM(bid.bid_price), "
        "COUNT_DISTINCT(bid.user_id), TOP(5, bid.user_id)",
        group="bid.exchange_id",
    ),
    group="exchange_id",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rate: int  #: events per second, open loop
    user_mod: int  #: ``user_id`` cardinality
    pv_every: int  #: every n-th event is a ``pv`` (0 = all ``bid``)
    queries: tuple[QuerySpec, ...]
    scrubd_args: tuple[str, ...] = ()

    @property
    def period(self) -> int:
        """The stream repeats (up to request ids) with this period."""
        return math.lcm(12 * len(CITIES), 8, self.pv_every or 1, self.user_mod)

    def event(self, i: int, seed: int) -> tuple[str, dict[str, Any], int]:
        """Event *i* of the stream: ``(event type, payload, request id)``."""
        rid = seed * 1_000_003 + i
        if self.pv_every and i % self.pv_every == self.pv_every - 1:
            return "pv", {"url": URLS[i % 5], "latency_ms": (i & 15) * 0.5}, rid
        return (
            "bid",
            {
                "exchange_id": i % 12,
                "city": CITIES[(i // 12 + seed) % 8],
                # Dyadic prices: every SUM is exact in binary floating
                # point whatever the order the engine adds them in.
                "bid_price": (i & 7) * 0.25,
                "user_id": (i * 37 + seed) % self.user_mod,
            },
            rid,
        )

    def chunk(self, start: int, seed: int) -> list[tuple[str, dict[str, Any], int]]:
        event = self.event
        return [event(i, seed) for i in range(start, start + CHUNK)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "heavy_ship",
            "every event crosses every stage and the serial central does the most "
            "work per event (wire decode + sketches)",
            rate=30_000, user_mod=4800, pv_every=0, queries=(HEAVY_QUERY,),
        ),
        Workload(
            "host_mixed",
            "selective, sampled and never-matching queries plus a disabled probe: "
            "the host fast path does nearly all the work and the central idles",
            rate=30_000, user_mod=4800, pv_every=4,
            queries=(
                QuerySpec(
                    _query(
                        "bid.city, COUNT(*), AVG(bid.bid_price)",
                        where="bid.exchange_id = 4", group="bid.city",
                    ),
                    group="city",
                    where=lambda p: p["exchange_id"] == 4,
                ),
                QuerySpec(_query("COUNT(*)", sample="1%"), sampled=True),
                QuerySpec(
                    _query("COUNT(*)", where="bid.bid_price > 100.0"),
                    where=lambda p: p["bid_price"] > 100.0,
                ),
            ),
        ),
        Workload(
            "wide_groups",
            "1000 rows per window close and a POLL reply that grows to ~0.7 MB: "
            "close, finalisation and POLL compete with ingest on one event loop",
            rate=20_000, user_mod=1000, pv_every=0,
            queries=(
                QuerySpec(
                    _query(
                        "bid.user_id, COUNT(*), SUM(bid.bid_price)",
                        group="bid.user_id",
                    ),
                    group="user_id",
                ),
            ),
        ),
        Workload(
            "heavy_ship_pool",
            "heavy_ship against scrubd --workers 2: the only path through the "
            "frame scan, shm ring, worker-side decode and cross-worker merge",
            rate=30_000, user_mod=4800, pv_every=0, queries=(HEAVY_QUERY,),
            scrubd_args=("--workers", "2"),
        ),
    )
}


# -- closed-form expectations ---------------------------------------------------


def expected_totals(
    workload: Workload, seed: int, n_events: int
) -> tuple[list[dict[Any, list]], int, int]:
    """Per query ``{group key: [COUNT(*), SUM(bid_price)]}`` over the first
    *n_events* events, plus the number of ``bid`` events and of events
    matched by at least one query."""
    full, rem = divmod(n_events, workload.period)
    totals: list[dict[Any, list]] = [{} for _ in workload.queries]
    bids = matched = 0
    for i in range(workload.period if full else rem):
        weight = full + (1 if i < rem else 0)
        etype, payload, _rid = workload.event(i, seed)
        if etype != "bid":
            continue
        bids += weight
        hit = False
        for query, per_group in zip(workload.queries, totals):
            if not query.where(payload):
                continue
            hit = True
            key = payload[query.group] if query.group else None
            slot = per_group.setdefault(key, [0, 0.0])
            slot[0] += weight
            slot[1] += weight * payload["bid_price"]
        matched += weight if hit else 0
    return totals, bids, matched


# -- the oracle -------------------------------------------------------------------


def _column(columns: Iterable[str], prefix: str) -> Optional[int]:
    for index, name in enumerate(columns):
        if name.startswith(prefix):
            return index
    return None


def check_results(
    workload: Workload, seed: int, n_events: int, results: list
) -> list[str]:
    """Violations of the closed-form totals, empty when *results* are right.

    *results* holds one ``ResultSet`` per query of the workload, in query
    order, collected after ``FINISH`` (every window closed).  Unsampled
    queries must match per-group COUNT(*) and SUM exactly (AVG, where a
    query has no SUM, to 1e-9 of count x mean); the sampled query's
    summed estimate must be within 5 % of the ``bid`` count.  Any drop,
    shed or late event, and any degraded window of a query that matched
    events, is a violation too.
    """
    expected, bids, _matched = expected_totals(workload, seed, n_events)
    problems: list[str] = []
    for index, (query, want, got) in enumerate(zip(workload.queries, expected, results)):
        tag = f"{workload.name} query {index}"
        columns = tuple(got.columns)
        count_col = _column(columns, "COUNT(*)")
        sum_col = _column(columns, "SUM(")
        avg_col = _column(columns, "AVG(")
        if count_col is None:
            problems.append(f"{tag}: no COUNT(*) column in {columns}")
            continue
        seen: dict[Any, list] = {}
        for window in got.windows:
            lost = window.host_dropped + window.host_shed + window.late_events
            if lost:
                problems.append(
                    f"{tag}: window {window.window_start:.1f} lost {lost} event(s) "
                    f"(dropped {window.host_dropped}, shed {window.host_shed}, "
                    f"late {window.late_events})"
                )
            if window.degraded and want:
                problems.append(f"{tag}: window {window.window_start:.1f} is degraded")
            for row in window.rows:
                values = row.values
                key = values[0] if query.group else None
                slot = seen.setdefault(key, [0, 0.0])
                count = values[count_col]
                slot[0] += count
                if sum_col is not None:
                    slot[1] += values[sum_col] or 0.0
                elif avg_col is not None and count:
                    slot[1] += values[avg_col] * count
        if query.sampled:
            estimate = sum(slot[0] for slot in seen.values())
            if not bids or abs(estimate - bids) > 0.05 * bids:
                problems.append(
                    f"{tag}: sampled COUNT(*) estimate {estimate} is not within "
                    f"5% of {bids}"
                )
            continue
        seen = {key: slot for key, slot in seen.items() if slot[0]}
        if set(seen) != set(want):
            missing = sorted(set(want) - set(seen), key=repr)[:5]
            extra = sorted(set(seen) - set(want), key=repr)[:5]
            problems.append(f"{tag}: groups differ (missing {missing}, extra {extra})")
            continue
        for key, (count, total) in want.items():
            got_count, got_total = seen[key]
            if got_count != count:
                problems.append(f"{tag}: group {key!r} COUNT(*) {got_count} != {count}")
            elif sum_col is not None and got_total != total:
                problems.append(f"{tag}: group {key!r} SUM {got_total!r} != {total!r}")
            elif sum_col is None and avg_col is not None and not math.isclose(
                got_total, total, rel_tol=1e-9
            ):
                problems.append(
                    f"{tag}: group {key!r} count x AVG {got_total!r} != {total!r}"
                )
    if len(results) != len(workload.queries):
        problems.append(
            f"{workload.name}: {len(results)} result set(s) for "
            f"{len(workload.queries)} queries"
        )
    return problems
