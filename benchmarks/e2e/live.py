"""The live run: one load-generator process driving a real ``scrubd``.

Only ``repro.live.LiveAgent``, ``repro.live.ControlClient`` and their
public attributes are used here, so internals can be deleted by later
PRs without breaking the benchmark they are judged by.

Threads of this process (all under one GIL, so never more than a core):
the application thread calling ``log()`` on an open-loop schedule, the
troubleshooter thread watching ``STATS`` and issuing ``POLL``s, and the
``LiveAgent``'s own flusher/control/heartbeat threads.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from daemon import Scrubd
from workloads import (
    CHUNK,
    HOST,
    SCHEMAS,
    WINDOW_SECONDS,
    Workload,
    check_results,
    expected_totals,
)

#: Warm-up, in windows: discarded, and long enough that the first window
#: close (2 s grace after a window's end) has happened before measuring.
WARMUP_SLICES = 3
#: Where in the daemon's window grid a slice starts (seconds past a
#: window boundary).
SLICE_PHASE = 0.5
STATS_PERIOD = 0.05
#: Every this many chunks the application thread times a fixed loop: the
#: machine's speed at that moment.  On this shared two-core box the same
#: code runs 20-60 % slower for seconds or minutes at a time, on both
#: cores at once, so every CPU-bound metric is reported per slice as
#: ``value * PROBE_REFERENCE / (median probe of the slice)`` — what it
#: would have cost at the reference speed.  The raw figures are kept as
#: ``loadgen.raw_*``.
PROBE_EVERY_CHUNKS = 10
PROBE_ITERATIONS = 600
#: The probe on this box when nothing else runs (seconds of thread CPU).
PROBE_REFERENCE = 170e-6
#: scrubd closes a window ``grace`` (2 s) plus up to one tick (0.25 s)
#: after its end; windows ending later than that before the last event
#: are closed by FINISH and give no latency sample.
CLOSE_DELAY = 2.35


def chunk_due(t0: float, k: int, rate: int) -> float:
    """When chunk *k* of an open-loop run starting at *t0* is due."""
    return t0 + k * CHUNK / rate


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation: ~20 samples support a
    median, not a tail)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def pick_cpus() -> tuple[Optional[int], Optional[int]]:
    """(load generator cpu, scrubd cpu): one core each when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


def _probe_loop(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        d = {"exchange_id": i % 12, "city": "x", "bid_price": i * 0.25, "user_id": i * 37 % 4800}
        t = (d["exchange_id"], d, i)
        total += len(d) + t[0] + (i & 7)
    return total


def speed_probe() -> float:
    """Thread CPU seconds of a fixed pure-Python loop with the load
    generator's own mix of work: dict and tuple building, lookups,
    integer arithmetic.  It calls nothing of the system under test.  The
    working set is one dict, and a short untimed pass runs first, so that
    what ran before the probe (cold or warm caches) hardly shows in it."""
    _probe_loop(PROBE_ITERATIONS // 6)
    c0 = time.thread_time()
    _probe_loop(PROBE_ITERATIONS)
    return time.thread_time() - c0


def at_reference_speed(value: float, probe: float) -> float:
    return value * PROBE_REFERENCE / probe


# -- set-up -----------------------------------------------------------------------


@dataclass
class Session:
    """A started daemon with one registered agent and every query armed."""

    scrubd: Scrubd
    agent: Any
    control: Any
    query_ids: list[str]
    setup_s: float
    setup_probe: float
    submit_ms: float
    install_ms: float

    def close(self) -> None:
        try:
            self.scrubd.stop()
        finally:
            self.control.close()
            self.agent.close()


def set_up(workload: Workload, scrubd_cpu: Optional[int], tag: str) -> Session:
    """spawn scrubd -> banner -> LiveAgent.start() -> SUBMITs -> installed."""
    from repro.live import ControlClient, LiveAgent

    probes = [speed_probe()]
    t0 = time.perf_counter()
    scrubd = Scrubd(workload.scrubd_args, scrubd_cpu, tag)
    agent = control = None
    try:
        # Most of a set-up is scrubd's interpreter start, which this
        # process only waits for: time the machine meanwhile.
        address = ("127.0.0.1", scrubd.wait_for_banner(lambda: probes.append(speed_probe())))
        agent = LiveAgent(address, HOST)
        for name, fields in SCHEMAS:
            agent.define_event(name, fields)
        agent.start()
        control = ControlClient(address)
        t1 = time.perf_counter()
        query_ids = [control.submit(q.text)["query_id"] for q in workload.queries]
        t2 = time.perf_counter()
        deadline = t2 + 10.0
        while not set(query_ids) <= set(agent.installed_query_ids):
            if time.perf_counter() > deadline:
                raise RuntimeError(f"queries {query_ids} never installed on {HOST}")
            time.sleep(0.0005)
        t3 = time.perf_counter()
    except BaseException:
        scrubd.stop()
        if control is not None:
            control.close()
        if agent is not None:
            agent.close()
        raise
    probes.append(speed_probe())
    return Session(
        scrubd, agent, control, query_ids,
        setup_s=t3 - t0,
        setup_probe=statistics.median(probes),
        submit_ms=(t2 - t1) * 1e3 / len(query_ids),
        install_ms=(t3 - t2) * 1e3,
    )


# -- the troubleshooter thread -------------------------------------------------------


@dataclass
class Troubleshooter:
    """Watches ``STATS`` every 50 ms and ``POLL``s the first query once
    per newly closed window; ``event_to_row`` is stamped when that reply
    has been decoded."""

    address: tuple[str, int]
    query_id: str
    transport: Any
    stop: threading.Event = field(default_factory=threading.Event)
    #: (window_end, seconds from window end to decoded rows, rows)
    windows: list[tuple[float, float, int]] = field(default_factory=list)
    #: (wall time, seconds) per request
    stats_times: list[tuple[float, float]] = field(default_factory=list)
    poll_times: list[tuple[float, float]] = field(default_factory=list)
    last_poll: Any = None
    outbox_depth_max: int = 0
    cpu_clock: Optional[int] = None
    error: Optional[BaseException] = None

    def start(self) -> None:
        self.thread = threading.Thread(target=self._run, name="troubleshooter", daemon=True)
        self.thread.start()

    def cpu_seconds(self) -> float:
        return time.clock_gettime(self.cpu_clock) if self.cpu_clock is not None else 0.0

    def _run(self) -> None:
        from repro.live import ControlClient

        self.cpu_clock = time.pthread_getcpuclockid(threading.get_ident())
        emitted = windows_seen = 0
        try:
            with ControlClient(self.address) as control:
                next_at = time.perf_counter()
                while not self.stop.is_set():
                    t0 = time.perf_counter()
                    stats = control.stats()
                    self.stats_times.append((time.time(), time.perf_counter() - t0))
                    self.outbox_depth_max = max(
                        self.outbox_depth_max, self.transport.outbox_depth
                    )
                    if stats["engine"]["windows_emitted"] > emitted:
                        emitted = stats["engine"]["windows_emitted"]
                        t0 = time.perf_counter()
                        results = control.poll(self.query_id)
                        now = time.time()
                        self.poll_times.append((now, time.perf_counter() - t0))
                        for window in results.windows[windows_seen:]:
                            self.windows.append(
                                (window.window_end, now - window.window_end, len(window.rows))
                            )
                        windows_seen = len(results.windows)
                        self.last_poll = results
                    next_at += STATS_PERIOD
                    self.stop.wait(max(0.0, next_at - time.perf_counter()))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the main thread
            self.error = exc


# -- the measured run -----------------------------------------------------------------


def run_live(
    workload: Workload,
    seed: int,
    seconds: float,
    setups: int = 3,
) -> dict[str, Any]:
    """Set up *setups* times (keeping the last), run warm-up + measured
    chunks on the open-loop schedule, drain, FINISH, and check the rows.

    Returns ``{"metrics": {name: (value, unit)}, "attempted", "failed",
    "problems", "unsteady", "results"}``.
    """
    loadgen_cpu, scrubd_cpu = pick_cpus()
    if loadgen_cpu is not None:
        # Before any thread exists, so every thread inherits the mask.
        os.sched_setaffinity(0, {loadgen_cpu})
    setup_times: list[tuple[float, float]] = []  # (seconds, probe)
    for attempt in range(setups):
        session = set_up(workload, scrubd_cpu, workload.name)
        setup_times.append((session.setup_s, session.setup_probe))
        if attempt < setups - 1:
            session.close()
    # Full (generation-2) collections walk the troubleshooter's own result
    # sets — 20 000 rows on wide_groups — and charge ~30 ms to whichever
    # thread triggered them, often the application thread.  They are the
    # harness's artefact, so they are off for the run; young collections,
    # where the allocations of log() and flush() show, stay on.
    gc.collect()
    young, middle, _full = gc.get_threshold()
    gc.set_threshold(young, middle, 1 << 30)
    try:
        return _drive(workload, seed, seconds, session, setup_times)
    finally:
        session.close()


def _drive(
    workload: Workload,
    seed: int,
    seconds: float,
    session: Session,
    setup_times: list[tuple[float, float]],
) -> dict[str, Any]:
    agent, scrubd, transport = session.agent, session.scrubd, session.agent.transport
    rate = workload.rate
    # The measured phase is cut into slices one window long, so every
    # slice holds one window close and one POLL; a CPU metric is the
    # median over slices, which a burst of machine noise cannot move.
    slice_chunks = round(WINDOW_SECONDS * rate / CHUNK)
    warm_chunks = WARMUP_SLICES * slice_chunks
    measured_chunks = round(seconds * rate / CHUNK)
    n_slices = max(1, measured_chunks // slice_chunks)
    measured_chunks = max(measured_chunks, slice_chunks)
    measured_events = measured_chunks * CHUNK
    total_events = (warm_chunks + measured_chunks) * CHUNK
    min_samples = max(2, int((seconds - CLOSE_DELAY) / WINDOW_SECONDS))

    shooter = Troubleshooter(
        ("127.0.0.1", scrubd.port), session.query_ids[0], transport
    )
    shooter.start()

    log = agent.log
    perf = time.perf_counter
    chunk_s: list[float] = []
    lag_s: list[float] = []
    probes: list[float] = []
    gen_s = probe_cpu = 0.0
    marks: list[dict[str, float]] = []  # one per slice boundary, then the end

    def mark() -> None:
        marks.append(
            {
                "wall": time.time(),
                "process_cpu": time.process_time(),
                "shooter_cpu": shooter.cpu_seconds(),
                "central_cpu": scrubd.cpu_seconds(),
                "probe_cpu": probe_cpu,
                "probes": len(probes),
                "chunks": len(chunk_s),
                "batches": transport.batches_sent,
            }
        )

    # Slice boundaries sit at a fixed phase of the daemon's window grid
    # (wall-clock multiples of the window length), which keeps each
    # close — 2.0-2.25 s after a window's end — in the middle of a slice.
    t0 = perf() + 0.05
    measured_from = time.time() + 0.05 + warm_chunks * CHUNK / rate
    t0 += (SLICE_PHASE - measured_from) % WINDOW_SECONDS
    for k in range(warm_chunks + measured_chunks):
        measured = k >= warm_chunks
        if measured and (k - warm_chunks) % slice_chunks == 0 and len(marks) <= n_slices:
            mark()
        g0 = perf()
        events = workload.chunk(k * CHUNK, seed)
        g1 = perf()
        due = chunk_due(t0, k, rate)
        if g1 < due:
            time.sleep(due - g1)
        t1 = perf()
        for etype, payload, rid in events:
            log(etype, payload, request_id=rid)
        t2 = perf()
        if measured:
            gen_s += g1 - g0
            lag_s.append(t1 - due)
            chunk_s.append(t2 - t1)
            if k % PROBE_EVERY_CHUNKS == 0:
                probes.append(speed_probe())
                probe_cpu += probes[-1]

    t_drain = perf()
    drained = agent.drain(timeout=30.0)
    drain_rtt = perf() - t_drain
    mark()
    first, last = marks[0], marks[-1]

    def samples() -> list[tuple[float, float, int]]:
        return [w for w in shooter.windows if w[0] >= first["wall"]]

    deadline = perf() + CLOSE_DELAY + WINDOW_SECONDS * (min_samples + 1)
    while len(samples()) < min_samples and perf() < deadline and shooter.error is None:
        time.sleep(0.02)
    shooter.stop.set()
    shooter.thread.join(timeout=10.0)
    if shooter.error is not None:
        raise shooter.error

    t_finish = perf()
    results = [session.control.finish(qid) for qid in session.query_ids]
    finish_ms = (perf() - t_finish) * 1e3
    stats = session.control.stats()
    scrubd.refresh_tree()
    rss = scrubd.rss_hwm_mib()

    # -- correctness and failed operations ------------------------------------
    problems = check_results(workload, seed, total_events, results)
    if not drained:
        problems.append("LiveAgent.drain() timed out")
    engine = stats["engine"]
    late = engine["events_late"]
    shed = engine["events_shed"]
    dropped = transport.dropped_events + sum(r.total_host_dropped for r in results)
    failed = dropped + shed + late
    if failed:
        problems.append(f"failed operations: dropped {dropped}, shed {shed}, late {late}")
    _totals, _bids, matched = expected_totals(workload, seed, total_events)

    # -- metrics -----------------------------------------------------------------
    def in_run(stamped: list[tuple[float, float]]) -> list[float]:
        return [s for wall, s in stamped if wall >= first["wall"]]

    windows = samples()
    if len(windows) < min_samples:
        problems.append(
            f"only {len(windows)} window(s) closed in the measured phase "
            f"(need {min_samples})"
        )
    # Per slice: CPU us per event on each side and the median log() call,
    # raw and at reference speed (the last mark closes the final slice only
    # when the run is a whole number of slices; a remainder is left out).
    raw: dict[str, list[float]] = {"agent": [], "central": [], "log": []}
    scaled: dict[str, list[float]] = {"agent": [], "central": [], "log": []}
    for a, b in zip(marks[:n_slices], marks[1:n_slices + 1]):
        agent_cpu = (
            (b["process_cpu"] - a["process_cpu"])
            - (b["shooter_cpu"] - a["shooter_cpu"])
            - (b["probe_cpu"] - a["probe_cpu"])
        )
        events = (b["chunks"] - a["chunks"]) * CHUNK
        probe = statistics.median(probes[int(a["probes"]):int(b["probes"])])
        for key, value in (
            ("agent", agent_cpu / events * 1e6),
            ("central", (b["central_cpu"] - a["central_cpu"]) / events * 1e6),
            ("log", statistics.median(chunk_s[int(a["chunks"]):int(b["chunks"])]) / CHUNK * 1e9),
        ):
            raw[key].append(value)
            scaled[key].append(at_reference_speed(value, probe))
    per_call = sorted(s / CHUNK for s in chunk_s)
    late_share = sum(1 for lag in lag_s if lag > CHUNK / rate) / len(lag_s)
    pool = stats.get("pool") or {}
    poll_s = in_run(shooter.poll_times)
    central_cpu_us = statistics.median(scaled["central"])
    received_share = engine["events_received"] / total_events
    metrics: dict[str, tuple[Any, str]] = {
        "setup_s": (
            statistics.median(at_reference_speed(s, p) for s, p in setup_times), "s",
        ),
        "log_ns_p50": (statistics.median(scaled["log"]), "ns"),
        "agent_cpu_us_per_event": (statistics.median(scaled["agent"]), "us"),
        "central_cpu_us_per_event": (central_cpu_us, "us"),
        "central_rss_mib": (rss, "MiB"),
        "wire_bytes_per_event": (transport.bytes_sent / total_events, "bytes"),
        "event_to_row_ms_p50": (
            statistics.median(w[1] for w in windows) * 1e3 if windows else None, "ms",
        ),
        "event_to_row_samples": (len(windows), "count"),
        "core.agent.matched_share": (matched / total_events, "share"),
        "core.agent.flush_interval_ms": (
            (last["wall"] - first["wall"]) / max(last["batches"] - first["batches"], 1) * 1e3,
            "ms",
        ),
        "core.agent.log_ns_p99": (
            at_reference_speed(percentile(per_call, 0.99), statistics.median(probes)) * 1e9,
            "ns",
        ),
        "live.transport.bytes_per_batch": (
            transport.bytes_sent / max(transport.batches_sent, 1), "bytes",
        ),
        "live.transport.outbox_depth_max": (shooter.outbox_depth_max, "count"),
        "live.transport.dropped_events": (transport.dropped_events, "count"),
        "live.server.cpu_us_per_received_event": (
            central_cpu_us / received_share if received_share else None, "us",
        ),
        "live.server.drain_rtt_ms": (drain_rtt * 1e3, "ms"),
        "live.server.stats_ms_p50": (
            statistics.median(in_run(shooter.stats_times)) * 1e3, "ms",
        ),
        "live.server.events_late": (late, "count"),
        "live.client.submit_ms": (session.submit_ms, "ms"),
        "live.client.install_ms": (session.install_ms, "ms"),
        "live.client.poll_ms_p50": (
            statistics.median(poll_s) * 1e3 if poll_s else None, "ms",
        ),
        "live.client.poll_ms_last": (poll_s[-1] * 1e3 if poll_s else None, "ms"),
        "live.client.finish_ms": (finish_ms, "ms"),
        "core.central.windows_emitted": (engine["windows_emitted"], "count"),
        "core.central.rows_emitted": (engine["rows_emitted"], "count"),
        "core.central.pool.ring_spills": (pool.get("ring_spills", 0), "count"),
        "core.central.pool.ring_bytes_in_place": (
            pool.get("ring_bytes_in_place", 0), "bytes",
        ),
        "loadgen.gen_us_per_event": (
            at_reference_speed(gen_s / measured_events, statistics.median(probes)) * 1e6, "us",
        ),
        "loadgen.late_chunk_share": (late_share, "share"),
        "loadgen.lag_ms_p99": (percentile(lag_s, 0.99) * 1e3, "ms"),
        "loadgen.probe_us_p25": (percentile(probes, 0.25) * 1e6, "us"),
        "loadgen.probe_us_p50": (statistics.median(probes) * 1e6, "us"),
        "loadgen.raw_setup_s": (statistics.median(s for s, _p in setup_times), "s"),
        "loadgen.raw_log_ns_p50": (statistics.median(per_call) * 1e9, "ns"),
        "loadgen.raw_agent_cpu_us_per_event": (statistics.median(raw["agent"]), "us"),
        "loadgen.raw_central_cpu_us_per_event": (statistics.median(raw["central"]), "us"),
    }
    return {
        "metrics": metrics,
        "attempted": matched,
        "failed": failed,
        "problems": problems,
        "unsteady": late_share > 0.2,
        "results": results,
        "last_poll": shooter.last_poll,
    }
