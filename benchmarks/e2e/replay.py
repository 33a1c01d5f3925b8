"""The traced run (``--trace``): a staged replay.

The same generated inputs are pushed, in one process and one 500-event
batch at a time, through the layers' public functions, with a span
around each call.  Stage costs are thread CPU time (the live figures
they are compared with are CPU per event, and CPU time is blind to a
noisy neighbour), scaled like the live figures to the reference machine
speed by a probe run between batches; spans carry wall-clock start and
end.

A stage whose function a later PR removes reports ``None``; everything
else still runs.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import json
import multiprocessing
import statistics
import time
import types
from collections import defaultdict
from typing import Any, Callable, Optional

from daemon import OUT_DIR, cpu_seconds
from live import at_reference_speed, speed_probe
from workloads import HOST, SCHEMAS, Workload, check_results

BATCH = 500  #: events per replay batch — the agent's flush threshold
REPLAY_SECONDS = 8.0  #: stream time replayed (several window closes)
PROFILE_EVENTS = 20_000  #: fixed slice the call counts are taken on
BASE_TIME = 1_700_000_000.0

#: The per-event stages: span name -> (CPU metric, call-count metric, what
#: an "event" is for it: one the host logged or one the central received).
STAGES = {
    "core.agent.log": ("core.agent.log_ns", "core.agent.log_pycalls_per_event", "logged"),
    "core.agent.flush": (
        "core.agent.flush_ns_per_event", "core.agent.flush_pycalls_per_event", "logged",
    ),
    "core.events.encode": (
        "core.events.encode_ns_per_event", "core.events.encode_pycalls_per_event", "logged",
    ),
    "core.events.decode": (
        "core.events.decode_ns_per_event", "core.events.decode_pycalls_per_event", "shipped",
    ),
    "core.central.ingest": (
        "core.central.ingest_ns_per_event", "core.central.ingest_pycalls_per_event", "shipped",
    ),
}


def _optional(module: str, name: str) -> Any:
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


class Layers:
    """The public functions the replay calls, each None if it is gone."""

    def __init__(self) -> None:
        self.parse_query = _optional("repro.core.query", "parse_query")
        self.validate_query = _optional("repro.core.query", "validate_query")
        self.plan_query = _optional("repro.core.query", "plan_query")
        self.EventRegistry = _optional("repro.core.events", "EventRegistry")
        self.ScrubAgent = _optional("repro.core.agent", "ScrubAgent")
        self.encode = _optional("repro.core.agent.transport", "encode_full_batch_into")
        self.decode = _optional("repro.core.agent.transport", "decode_full_batch")
        self.CentralEngine = _optional("repro.core.central", "CentralEngine")
        self.ShardPool = _optional("repro.core.central", "ShardPool")
        self.results_to_payload = _optional("repro.live.protocol", "resultset_to_payload")
        self.results_from_payload = _optional(
            "repro.live.protocol", "resultset_from_payload"
        )
        self.encode_message_frame = _optional("repro.live.protocol", "encode_message_frame")
        self.decode_message = _optional("repro.live.protocol", "decode_message")
        self.MsgType = _optional("repro.live.protocol", "MsgType")

    @property
    def can_plan(self) -> bool:
        return None not in (
            self.parse_query, self.validate_query, self.plan_query, self.EventRegistry
        )

    @property
    def can_code_results(self) -> bool:
        return None not in (
            self.results_to_payload, self.results_from_payload,
            self.encode_message_frame, self.decode_message, self.MsgType,
        )


class Tracer:
    """Per-stage CPU totals, optional spans, optional per-stage profiles."""

    def __init__(self, record: bool, profile: bool = False) -> None:
        self.record = record
        self.spans: list[dict[str, Any]] = []
        self.cpu: dict[str, float] = defaultdict(float)
        self.last_cpu = 0.0
        self.profiles: Optional[dict[str, cProfile.Profile]] = (
            {name: cProfile.Profile() for name in STAGES} if profile else None
        )
        self._parent: Optional[int] = None

    def open(self, name: str, batch: Optional[int]) -> int:
        """Start a parent span; stages timed until :meth:`close` nest in it."""
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": time.perf_counter(),
             "end": None, "parent": None, "batch": batch}
        )
        self._parent = len(self.spans) - 1
        return self._parent

    def close(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter()
        self._parent = None

    def timed(self, name: str, batch: Optional[int], fn: Callable, *args: Any) -> Any:
        profile = self.profiles.get(name) if self.profiles is not None else None
        w0 = time.perf_counter()
        c0 = time.thread_time()
        if profile is not None:
            profile.enable()
            try:
                out = fn(*args)
            finally:
                profile.disable()
        else:
            out = fn(*args)
        self.last_cpu = time.thread_time() - c0
        self.cpu[name] += self.last_cpu
        if self.record:
            self.spans.append(
                {"id": len(self.spans), "name": name, "start": w0,
                 "end": time.perf_counter(), "parent": self._parent, "batch": batch}
            )
        return out

    def pycalls(self, name: str) -> int:
        """Calls of Python-level functions (not builtins) seen in *name*."""
        assert self.profiles is not None
        return sum(
            entry.callcount
            for entry in self.profiles[name].getstats()
            if isinstance(entry.code, types.CodeType)
        )


class _Collect:
    """The smallest ``Transport``: keeps what ``flush()`` hands over."""

    def __init__(self) -> None:
        self.batches: list = []

    def send(self, batch: Any) -> None:
        self.batches.append(batch)


# -- the stages (module-level so profiles and spans see the same frames) -------------


def _log_batch(agent: Any, events: list, stamps: list) -> None:
    log = agent.log
    for (etype, payload, rid), ts in zip(events, stamps):
        log(etype, payload, request_id=rid, timestamp=ts)


def _flush(agent: Any, transport: _Collect, now: float) -> list:
    agent.flush(now)
    batches, transport.batches = transport.batches, []
    return batches


def _encode_all(encode: Callable, batches: list) -> list[bytes]:
    frames = []
    for batch in batches:
        out = bytearray()
        encode(out, batch)
        frames.append(bytes(out))
    return frames


def _decode_all(decode: Callable, frames: list[bytes]) -> list:
    return [decode(frame) for frame in frames]


def _ingest_all(ingest: Callable, items: list) -> None:
    for item in items:
        ingest(item)


def _plan_all(layers: Layers, registry: Any, texts: list[str]) -> list:
    return [
        layers.plan_query(
            layers.validate_query(layers.parse_query(text), registry), f"q{index + 1:05d}"
        )
        for index, text in enumerate(texts)
    ]


# -- one pass ------------------------------------------------------------------------


def _pass(
    layers: Layers, workload: Workload, seed: int, n_events: int, tracer: Tracer
) -> dict[str, Any]:
    """Replay the first *n_events* events; returns counts and result sets."""
    registry = layers.EventRegistry()
    for name, fields in SCHEMAS:
        registry.define(name, fields)
    texts = [q.text for q in workload.queries]
    plan_times = []
    for _ in range(9):
        tracer.timed("core.query.plan", None, _plan_all, layers, registry, texts)
        plan_times.append(tracer.last_cpu / len(texts))
    plans = _plan_all(layers, registry, texts)

    pooled = bool(workload.scrubd_args)
    transport = _Collect()
    now = [BASE_TIME]
    agent = None
    if layers.ScrubAgent is not None:
        # Auto-flush off (the threshold is out of reach): flush() is its own stage.
        agent = layers.ScrubAgent(
            HOST, registry, transport, clock=lambda: now[0],
            buffer_capacity=4 * BATCH, flush_batch_size=1 << 30,
        )
        for plan in plans:
            for host_object in plan.host_objects:
                agent.install(host_object, BASE_TIME - 1.0, BASE_TIME + 600.0)
    engine_type = layers.ShardPool if pooled else layers.CentralEngine
    engine = None
    if engine_type is not None:
        engine = engine_type(workers=2) if pooled else engine_type()
    counts = defaultdict(int)
    closes: list[tuple[float, int, int]] = []  # (cpu s, windows, rows) per closing call
    codings: list[tuple[float, float, int]] = []  # (encode s, decode s, rows) per POLL
    workers: list[int] = []
    probes = [speed_probe()]
    try:
        if engine is not None:
            for plan in plans:
                engine.register(
                    plan.central_object, planned_hosts=1, targeted_hosts=1,
                    targeted_names=(HOST,), delivery_state=lambda: {HOST: "connected"},
                )
            workers = [p.pid for p in multiprocessing.active_children()] if pooled else []
        worker_cpu0 = cpu_seconds(workers)
        step = 1.0 / workload.rate
        n_batches = n_events // BATCH
        for b in range(n_batches):
            first = b * BATCH
            events = [workload.event(i, seed) for i in range(first, first + BATCH)]
            stamps = [BASE_TIME + i * step for i in range(first, first + BATCH)]
            now[0] = stamps[-1]
            span = tracer.open("replay.batch", b) if tracer.record else None
            if agent is not None:
                tracer.timed("core.agent.log", b, _log_batch, agent, events, stamps)
                counts["logged"] += BATCH
                if agent.buffered >= BATCH or b == n_batches - 1:
                    batches = tracer.timed(
                        "core.agent.flush", b, _flush, agent, transport, now[0]
                    )
                    _central(layers, engine, pooled, tracer, b, batches, counts)
            if engine is not None:
                emitted = tracer.timed("core.central.advance", b, engine.advance, now[0])
                if emitted:
                    _note_close(tracer, counts, closes, emitted)
                    if layers.can_code_results:
                        codings.append(
                            _code_results(
                                layers, tracer, b, engine.results_so_far(plans[0].query_id)
                            )
                        )
            if span is not None:
                tracer.close(span)
            probes.append(speed_probe())
        results = []
        for plan in plans if engine is not None else ():
            # FINISH closes what the last advance() left open.
            before = len(engine.results_so_far(plan.query_id).windows)
            results.append(
                tracer.timed("core.central.finish", None, engine.finish, plan.query_id)
            )
            _note_close(tracer, counts, closes, results[-1].windows[before:])
        counts["worker_cpu"] = cpu_seconds(workers) - worker_cpu0
        if results and layers.can_code_results:
            codings.append(_code_results(layers, tracer, None, results[0]))
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    # One factor for the whole pass: what its CPU seconds are worth at the
    # reference machine speed.
    speed = at_reference_speed(1.0, statistics.median(probes))
    return {
        "counts": counts, "results": results, "speed": speed,
        "closes": closes, "codings": codings,
        "plan_us": statistics.median(plan_times) * speed * 1e6,
    }


def _central(
    layers: Layers, engine: Any, pooled: bool, tracer: Tracer, b: int,
    batches: list, counts: dict,
) -> None:
    """Encode -> decode -> ingest for what one flush produced."""
    if layers.encode is None:
        return
    frames = tracer.timed("core.events.encode", b, _encode_all, layers.encode, batches)
    counts["shipped"] += sum(len(batch.events) for batch in batches)
    counts["wire_bytes"] += sum(len(frame) for frame in frames)
    decoded = None
    if layers.decode is not None:
        decoded = tracer.timed("core.events.decode", b, _decode_all, layers.decode, frames)
    if engine is None:
        return
    if pooled:
        # The pool's door takes the wire frame; decode happens in the workers.
        tracer.timed("core.central.ingest", b, _ingest_all, engine.ingest_frame, frames)
    elif decoded is not None:
        tracer.timed("core.central.ingest", b, _ingest_all, engine.ingest, decoded)


def _results_frame(layers: Layers, results: Any) -> bytes:
    return layers.encode_message_frame(
        layers.MsgType.RESULTS, layers.results_to_payload(results)
    )


def _results_from_frame(layers: Layers, frame: bytes) -> Any:
    # Past the u32 frame length and the message-type byte.
    return layers.results_from_payload(layers.decode_message(frame[5:]))


def _code_results(layers: Layers, tracer: Tracer, b: Optional[int], results: Any) -> tuple:
    """What a POLL after this close costs both ends of the control
    channel: (encode s, decode s, rows in the reply)."""
    frame = tracer.timed("live.protocol.results_encode", b, _results_frame, layers, results)
    encode = tracer.last_cpu
    tracer.timed("live.protocol.results_decode", b, _results_from_frame, layers, frame)
    return encode, tracer.last_cpu, sum(len(w.rows) for w in results.windows)


def _note_close(tracer: Tracer, counts: dict, closes: list, windows: list) -> None:
    rows = sum(len(w.rows) for w in windows)
    tracer.cpu["core.central.close"] += tracer.last_cpu
    counts["windows"] += len(windows)
    counts["rows"] += rows
    if windows:
        closes.append((tracer.last_cpu, len(windows), rows))


# -- the traced run ---------------------------------------------------------------------


def _per(total: Optional[float], count: int, scale: float) -> Optional[float]:
    return None if total is None or not count else total / count * scale


def run_replay(
    workload: Workload, seed: int, seconds: float, live: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """Replay, count calls, derive the residual rows against *live*'s
    metrics, write the spans file.  Returns ``{"metrics", "problems"}``."""
    layers = Layers()
    metrics: dict[str, tuple[Any, str]] = {}
    problems: list[str] = []
    if not layers.can_plan:
        return {"metrics": metrics, "problems": ["replay: the query layer is gone"]}
    n_events = int(min(seconds, REPLAY_SECONDS) * workload.rate) // BATCH * BATCH
    # The live run's heap is garbage or long-lived by now: keep the
    # collector from walking it in the middle of a timed stage.
    gc.collect()
    gc.freeze()

    traced = Tracer(record=True)
    t0 = time.thread_time()
    on = _pass(layers, workload, seed, n_events, traced)
    cpu_on = time.thread_time() - t0
    plain = Tracer(record=False)
    t0 = time.thread_time()
    off = _pass(layers, workload, seed, n_events, plain)
    cpu_off = time.thread_time() - t0
    profiled = Tracer(record=False, profile=True)
    counted = _pass(layers, workload, seed, min(n_events, PROFILE_EVENTS), profiled)

    if on["results"]:
        problems += [f"replay: {p}" for p in check_results(workload, seed, n_events, on["results"])]

    counts = on["counts"]
    cpu = {name: seconds * on["speed"] for name, seconds in traced.cpu.items()}
    counts["worker_cpu"] *= on["speed"]
    shipped = counts["shipped"]

    def per_event(name: str, scale: float) -> Optional[float]:
        """Stage CPU per event of its kind; None when the stage never ran."""
        return _per(cpu.get(name), counts[STAGES[name][2]], scale)

    def per_call(calls: list, cost: int, per: int) -> Optional[float]:
        """The rare stages run a few times per replay: the median over
        calls, which one garbage collection inside a call cannot move."""
        ratios = [call[cost] / call[per] for call in calls if call[per]]
        return statistics.median(ratios) * on["speed"] * 1e6 if ratios else None

    metrics["core.query.plan_us"] = (on["plan_us"], "us")
    for name, (cpu_metric, calls_metric, kind) in STAGES.items():
        metrics[cpu_metric] = (per_event(name, 1e9), "ns")
        events = counted["counts"][kind]
        metrics[calls_metric] = (
            profiled.pycalls(name) / events if name in profiled.cpu and events else None,
            "count",
        )
    metrics["core.central.pool.worker_cpu_ns_per_event"] = (
        _per(counts["worker_cpu"], shipped, 1e9) or 0.0, "ns",
    )
    metrics["core.central.close_us_per_window"] = (per_call(on["closes"], 0, 1), "us")
    metrics["core.central.close_us_per_row"] = (per_call(on["closes"], 0, 2), "us")
    metrics["core.central.close_ns_per_event"] = (
        _per(cpu.get("core.central.close"), shipped, 1e9), "ns",
    )
    metrics["live.protocol.results_encode_us_per_row"] = (per_call(on["codings"], 0, 2), "us")
    metrics["live.protocol.results_decode_us_per_row"] = (per_call(on["codings"], 1, 2), "us")
    metrics["trace.overhead_share"] = (
        cpu_on * on["speed"] / (cpu_off * off["speed"]) if cpu_off else None, "ratio",
    )

    # -- the two residual rows: live CPU per event minus the replayed stages ----
    if live is not None:
        def value(name: str) -> Optional[float]:
            return live["metrics"].get(name, (None, ""))[0]

        host_stages = [
            value("loadgen.gen_us_per_event"),
            per_event("core.agent.log", 1e6),
            per_event("core.agent.flush", 1e6),
            per_event("core.events.encode", 1e6),
        ]
        central_stages = [
            # The pool's parent never decodes: its workers do, on their own CPU.
            0.0 if workload.scrubd_args else per_event("core.events.decode", 1e6),
            per_event("core.central.ingest", 1e6),
            _per(counts["worker_cpu"], shipped, 1e6) or 0.0,
            _per(cpu.get("core.central.close"), shipped, 1e6) or 0.0,
        ]
        metrics["live.transport.residual_us_per_event"] = (
            _residual(value("agent_cpu_us_per_event"), host_stages), "us",
        )
        metrics["live.server.residual_us_per_event"] = (
            _residual(value("live.server.cpu_us_per_received_event"), central_stages), "us",
        )
        last_poll = live.get("last_poll")
        metrics["live.client.poll_bytes_last"] = (
            len(_results_frame(layers, last_poll))
            if layers.can_code_results and last_poll is not None else None,
            "bytes",
        )

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload.name}.json"
    path.write_text(
        json.dumps(
            {"workload": workload.name, "seed": seed, "events": n_events,
             "stage_cpu_seconds": dict(cpu), "spans": traced.spans}
        )
    )
    return {"metrics": metrics, "problems": problems, "spans_file": str(path)}


def _residual(total: Optional[float], stages: list[Optional[float]]) -> Optional[float]:
    if total is None or any(s is None for s in stages):
        return None
    return total - sum(stages)
