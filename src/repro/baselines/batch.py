"""Offline batch analysis over logs — the "Hadoop" stand-in.

Given a Scrub query and a :class:`LogStore` full of raw events, the
batch engine computes the same answer the online pipeline would have —
by scanning every retained record, applying the selection during the
scan (the map phase), and running the usual window/join/group machinery
over the survivors.

The *cost model* is the point of the baseline (paper Section 8.1): a
batch job pays cluster startup plus a full scan of everything that was
logged, so its time-to-first-answer is minutes while Scrub's is one
window length.  ``estimate_runtime`` prices a job the way the paper
argues — and the measured comparison benchmark reports both the modelled
batch latency and Scrub's actual first-window latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.central.engine import CentralEngine
from ..core.agent.transport import EventBatch
from ..core.events import EventRegistry
from ..core.query.codegen import compile_predicate, event_rows
from ..core.query.parser import parse_query
from ..core.query.planner import plan_query
from ..core.query.validator import validate_query
from ..core.central.results import ResultSet
from .logstore import LogStore

__all__ = ["BatchCostModel", "BatchJobReport", "BatchQueryEngine"]


@dataclass(frozen=True)
class BatchCostModel:
    """How long a batch job over the logs would take.

    Defaults approximate a modest Hadoop deployment: half-a-minute
    of job startup/scheduling, and a per-node scan rate dominated by
    decompression + deserialization of wide log records.
    """

    job_startup_seconds: float = 30.0
    nodes: int = 20
    records_per_node_per_second: float = 50_000.0
    shuffle_seconds_per_gb: float = 8.0

    def estimate_runtime(self, records_scanned: int, shuffle_bytes: int) -> float:
        scan = records_scanned / (self.nodes * self.records_per_node_per_second)
        shuffle = (shuffle_bytes / 1e9) * self.shuffle_seconds_per_gb
        return self.job_startup_seconds + scan + shuffle


@dataclass
class BatchJobReport:
    """The outcome of one batch analysis."""

    results: ResultSet
    records_scanned: int
    records_matched: int
    log_bytes_scanned: int
    estimated_runtime_seconds: float


class BatchQueryEngine:
    """Runs Scrub queries offline over a :class:`LogStore`."""

    def __init__(
        self,
        registry: EventRegistry,
        cost_model: BatchCostModel | None = None,
    ) -> None:
        self.registry = registry
        self.cost_model = cost_model if cost_model is not None else BatchCostModel()

    def run(self, query_text: str, store: LogStore) -> BatchJobReport:
        """Scan the whole store and answer *query_text*.

        Target expressions and sampling clauses are ignored: the logs
        were written without knowledge of future queries, so the scan
        covers everything — which is precisely the baseline's cost
        structure.
        """
        query = parse_query(query_text)
        validated = validate_query(query, self.registry)
        plan = plan_query(validated, "batch")

        predicates = {
            obj.event_type: compile_predicate(obj.predicate, event_rows((obj.event_type,)))
            for obj in plan.host_objects
        }

        engine = CentralEngine(grace_seconds=0.0)
        engine.register(plan.central_object, planned_hosts=1, targeted_hosts=1)

        scanned = 0
        matched = 0
        max_ts = 0.0
        matching = []
        for event in store.events:
            scanned += 1
            predicate = predicates.get(event.event_type)
            if predicate is None:
                continue  # the scan still paid for the record
            if not predicate(event):
                continue
            matched += 1
            max_ts = max(max_ts, event.timestamp)
            matching.append(event)
        engine.ingest(
            EventBatch(host="batch", query_id="batch", events=matching)
        )
        results = engine.finish("batch")

        runtime = self.cost_model.estimate_runtime(
            records_scanned=scanned,
            shuffle_bytes=sum(e.approx_size() for e in matching),
        )
        return BatchJobReport(
            results=results,
            records_scanned=scanned,
            records_matched=matched,
            log_bytes_scanned=store.stats.json_bytes,
            estimated_runtime_seconds=runtime,
        )
