"""Process-parallel ScrubCentral: a supervised pool of shard workers.

The paper runs ScrubCentral as a dedicated multi-machine facility
(Section 4); this module is the single-box analogue — N OS processes,
each owning a shard of the event stream keyed by the request-id hash,
so join co-location is preserved: every event of one request lands on
one worker.

Division of labour (docs/SCALING.md):

* The **parent** keeps every piece of accounting that needs a global
  view — window tracking and late-event counting, per-host M_i counts,
  drop attribution, coverage, sampling estimation, result finalization —
  and routes window-segmented event slices to the workers.
* The **workers** do only the per-event heavy lifting: residual
  predicates, group segmentation, aggregate updates (including the HLL
  and Space-Saving sketch updates that dominate rich queries).
* At window close the parent collects each worker's partial group map
  and folds it in with the aggregate ``merge()`` operators; sketches
  merge losslessly (HLL) or within the Space-Saving error envelope.

Raw-selection queries (no aggregates, no GROUP BY) stay on the parent:
their output rows must preserve arrival order, which a fan-out/merge
would have to re-sequence for no gain — they are cheap per event.

**Self-healing** (docs/SCALING.md §"Worker failure & load shedding"):
the parent supervises its workers.  A pipe error during ingest or
broadcast, a dead pipe at window close, or a worker that fails to
answer a close within ``worker_timeout`` seconds (hung — e.g. SIGSTOP)
triggers a **respawn**: the worker process is killed and replaced, the
shard's active queries are re-registered on the fresh process, and —
because the dead worker's in-flight window state is unrecoverable — the
loss is reported as *degraded coverage*: every window open at respawn
time carries a ``shard_gaps`` entry naming the shard and the reason in
its :class:`WindowCoverage`.  The pool itself never poisons: all
parent-side accounting (M_i counts, drops, shed, coverage) is
untouched, per-query failure isolation is preserved, and ``close()``
stays idempotent with dead workers in any state.

Only wire bytes cross the process boundary on the way in, and there is
one way in: ``ingest_frame`` scans a frame, writes each shard's event
bytes once into that worker's SPSC ring (``shm_ring.ShmRing``) and sends
an integer descriptor over the pipe — the parent passes offsets, not
bytes (docs/SCALING.md §"Shared-memory ring ingest"); the worker decodes
on its own core.  ``ingest(EventBatch)``, the in-process door, encodes
the batch and takes the same path.  The same bytes go over the pipe
instead only where the code observes a need: a full ring spills that one
send, a platform that cannot create or attach a ring falls back for the
whole pool (one warning), and the retry after a respawn never reuses a
descriptor.  Every respawn gets a fresh generation-tagged ring.  Only
aggregate states come back pickled, via their flat pickle forms.
Everything observable — results, stats, coverage, drop/late accounting —
matches the serial engine exactly in fault-free runs;
``tests/core/test_shard_pool.py`` pins that equivalence with supervision
enabled, ring and pipe bytes alike.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import warnings
from typing import Any, Callable, Mapping, Optional

from ..agent.transport import EventBatch, encode_full_batch, scan_full_batch
from ..events.encoding import decode_event_frames
from ..query.errors import ScrubExecutionError
from ..query.planner import CentralQueryObject
from .engine import DEFAULT_GRACE_SECONDS, CentralEngine, _RunningQuery
from .results import ResultSet, WindowResult
from .shm_ring import DEFAULT_RING_CAPACITY, ShmRing

__all__ = ["ShardPool", "DEFAULT_WORKER_TIMEOUT"]

_log = logging.getLogger(__name__)

#: Seconds the parent waits for a worker's window-close reply before it
#: declares the worker hung and respawns it.
DEFAULT_WORKER_TIMEOUT = 10.0

#: Idle-recv heartbeat: how often a quiescent worker checks whether its
#: parent is still alive (a parent killed without close() cannot EOF the
#: pipe — the fork child holds the other end too).
_ORPHAN_POLL_SECONDS = 2.0


def _worker_main(
    conn,
    grace_seconds: float,
    ring_name: Optional[str] = None,
    generation: int = 0,
) -> None:
    """Shard worker loop: a thin message pump around a CentralEngine.

    The worker reuses the engine's batched processing internals but never
    closes windows itself — the parent owns window lifecycle and asks for
    partial state instead.  Errors are remembered per query and reported
    on the next close so a poisoned event cannot wedge the protocol.

    When the parent assigned a shared-memory ring, the very first pipe
    message is the attach handshake ``("ready", ok, detail)`` — sent
    before any other traffic so the parent can fall back to pipe-bytes
    without desynchronizing later replies.
    """
    engine = CentralEngine(grace_seconds=grace_seconds)
    failed: dict[str, str] = {}
    parent_pid = os.getppid()
    ring = None
    if ring_name is not None:
        try:
            ring = ShmRing.attach(ring_name, generation)
            conn.send(("ready", True, ""))
        except Exception as exc:  # noqa: BLE001 - reported in the handshake
            try:
                conn.send(("ready", False, f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                pass
    while True:
        try:
            # The fork child inherits the parent-side pipe end, so a
            # parent that dies without close() never EOFs this recv —
            # the worker would block forever, pinning its ring segment
            # in /dev/shm.  Poll with a heartbeat and exit once we have
            # been reparented; the resource tracker then reaps the
            # orphaned segments.
            if not conn.poll(_ORPHAN_POLL_SECONDS):
                if os.getppid() != parent_pid:
                    break
                continue
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind in ("shm", "frames"):
            # The parent shipped this shard's slice of a wire frame
            # undecoded — in the ring, or (spill, fallback, post-respawn
            # retry) over the pipe; the Event objects are built here, on
            # the worker's core, off the parent's critical path.
            if kind == "shm":
                _, query_id, window, count, offset, length, upto, _seq, gen = message
                if ring is None or gen != ring.generation:
                    continue
                payload = ring.payload(offset, length)
            else:
                _, query_id, window, count, payload = message
            try:
                try:
                    rq = None if query_id in failed else engine._queries.get(query_id)
                    events = None if rq is None else decode_event_frames(payload, count)
                finally:
                    if kind == "shm":
                        # The release runs even when the query failed or
                        # vanished; a skipped ack would strand those bytes
                        # and jam the ring into permanent spill.  Decode
                        # copied the bytes out; drop the sub-view *before*
                        # acking — a lingering export would keep the
                        # segment's mmap pinned past ring.close() at exit.
                        payload.release()
                        ring.release(upto)
                if rq is not None:
                    engine._process_window_events(rq, window, events)
            except Exception as exc:  # noqa: BLE001 - reported at close
                failed[query_id] = f"{type(exc).__name__}: {exc}"
        elif kind == "close":
            _, query_id, window = message
            error = failed.get(query_id)
            if error is not None:
                conn.send(("error", error))
                continue
            try:
                conn.send(("closed", *_collect_window(engine, query_id, window)))
            except Exception as exc:  # noqa: BLE001
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
        elif kind == "register":
            _, spec = message
            if spec.query_id not in engine._queries:
                engine.register(spec)
        elif kind == "unregister":
            _, query_id = message
            engine._queries.pop(query_id, None)
            failed.pop(query_id, None)
        elif kind == "stop":
            break
    if ring is not None:
        ring.close()
    conn.close()


def _collect_window(engine: CentralEngine, query_id: str, window: int):
    """Extract one window's partial state from a worker engine.

    Returns ``(groups, rows_processed, host_values)`` where *groups* maps
    group key -> aggregate states (the shard's partial aggregates) and
    *host_values* carries the per-host value summaries the parent's
    sampling estimator folds into its own accumulators.
    """
    rq = engine._queries.get(query_id)
    if rq is None:
        return ({}, 0, {})
    rq.hosts_by_window.pop(window, None)
    state = engine._take_window_state(rq, window)
    host_values = {}
    per_host = rq.host_acc.pop(window, None)
    if per_host:
        host_values = {
            host: (acc.counts, acc.totals, acc.sum_sqs)
            for host, acc in per_host.items()
        }
    if state is None:
        return ({}, 0, host_values)
    return (state.groups, state.rows_processed, host_values)


class _Worker:
    """One supervised shard worker: process, pipe, generation, and ring.

    ``ring`` is ``None`` after a capability fallback to pipe-bytes; the
    per-worker counters feed ``pool_health()``.
    """

    __slots__ = (
        "index", "proc", "conn", "generation",
        "ring", "seq", "descriptors", "bytes_in_place", "spills",
    )

    def __init__(self, index: int, proc, conn, generation: int, ring=None) -> None:
        self.index = index
        self.proc = proc
        self.conn = conn
        self.generation = generation
        self.ring = ring
        #: Monotonic descriptor sequence (debugging/observability aid).
        self.seq = 0
        self.descriptors = 0
        self.bytes_in_place = 0
        self.spills = 0


class _WorkerHung(Exception):
    """Internal: a worker missed its close-reply heartbeat deadline."""


class ShardPool(CentralEngine):
    """A drop-in CentralEngine that fans aggregation out to N processes.

    The public surface is exactly the serial engine's — ``register`` /
    ``ingest`` / ``advance`` / ``finish`` — plus ``close()`` (also via
    context manager) to reap the worker processes, and ``pool_health()``
    for the supervisor's respawn accounting.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        grace_seconds: float = DEFAULT_GRACE_SECONDS,
        on_window: Optional[Callable[[WindowResult], None]] = None,
        worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        super().__init__(grace_seconds, on_window)
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        if worker_timeout <= 0:
            raise ValueError(f"worker_timeout must be positive, got {worker_timeout}")
        if ring_capacity <= 0:
            raise ValueError(f"ring_capacity must be positive, got {ring_capacity}")
        self._worker_timeout = worker_timeout
        self._grace_seconds = grace_seconds
        #: Whether new worker spawns get a shared-memory ring.  Flips to
        #: False (once, with a log line) on any create/attach failure —
        #: the pool degrades to pipe-bytes instead of crashing.
        self._use_shm = True
        self._ring_capacity = ring_capacity
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        #: Supervisor accounting: how many times a worker was respawned,
        #: and why (index, generation, reason per event).
        self.worker_respawns = 0
        self._respawn_log: list[dict[str, Any]] = []
        self._workers: list[_Worker] = [
            self._spawn(i, generation=0) for i in range(self.workers)
        ]
        self._closed = False

    # -- supervision -----------------------------------------------------------

    def _fallback_to_pipe(self, reason: str) -> None:
        """Disable the shm transport for this pool, logging once."""
        if self._use_shm:
            self._use_shm = False
            _log.warning(
                "shared-memory ring transport disabled (%s); "
                "falling back to pipe-bytes shard ingest",
                reason,
            )

    def _spawn(self, index: int, generation: int) -> _Worker:
        ring = None
        if self._use_shm:
            try:
                ring = ShmRing.create(self._ring_capacity, generation)
            except Exception as exc:  # noqa: BLE001 - capability fallback
                self._fallback_to_pipe(f"ring create failed: {exc}")
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._grace_seconds,
                ring.name if ring is not None else None,
                generation,
            ),
            name=f"scrub-shard-{index}.{generation}",
            daemon=True,
        )
        with warnings.catch_warnings():
            # Python 3.12 warns when forking a process that has ever
            # started a thread; the workers only read their pipe.
            warnings.simplefilter("ignore", DeprecationWarning)
            proc.start()
        child_conn.close()
        worker = _Worker(index, proc, parent_conn, generation, ring)
        if ring is not None:
            worker = self._confirm_ring(worker)
        return worker

    def _confirm_ring(self, worker: _Worker) -> _Worker:
        """Wait for the worker's attach handshake; degrade on failure.

        A worker that reports a failed attach keeps running ring-less
        (it sent the handshake, so its pipe is in sync).  A worker that
        never answers is killed and respawned without a ring — the
        ring-less spawn path has no handshake, so this cannot recurse.
        Either way the pool-wide transport falls back and the orphaned
        segment is unlinked; the pool never crashes here.
        """
        ring = worker.ring
        answered = True
        try:
            if not worker.conn.poll(self._worker_timeout):
                raise _WorkerHung()
            reply = worker.conn.recv()
            ok = reply[0] == "ready" and reply[1]
            detail = reply[2] if len(reply) > 2 else ""
        except _WorkerHung:
            answered, ok = False, False
            detail = f"no attach reply within {self._worker_timeout:g}s"
        except (EOFError, OSError) as exc:
            answered, ok = False, False
            detail = f"worker died during attach: {exc}"
        if ok:
            return worker
        self._fallback_to_pipe(f"worker {worker.index} ring attach failed: {detail}")
        ring.destroy()
        worker.ring = None
        if answered:
            # The worker reported the failure itself: it is alive, its
            # pipe is in sync, and it runs fine without a ring.
            return worker
        worker.proc.kill()
        worker.proc.join(timeout=5)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        return self._spawn(worker.index, worker.generation)

    def _supervise(self, index: int, reason: str) -> None:
        """Replace a dead or hung worker and account for the data gap.

        The fresh process gets every active parallel query re-registered;
        whatever the dead worker held for currently-open windows is gone,
        so each such window is marked with a ``shard_gaps`` coverage
        entry instead of poisoning the pool or the query.
        """
        if self._closed:
            return
        old = self._workers[index]
        if old.proc.is_alive():
            # Hung (e.g. SIGSTOP): SIGKILL works even on a stopped process.
            old.proc.kill()
        old.proc.join(timeout=5)
        try:
            old.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if old.ring is not None:
            # The dead worker's unacked in-flight descriptors die with its
            # ring; the replacement gets a fresh generation-tagged segment
            # so it can never read its predecessor's stale cursors.  The
            # data loss is what _mark_gap below reports as shard_gaps.
            old.ring.destroy()
            old.ring = None

        fresh = self._spawn(index, generation=old.generation + 1)
        # Transport counters are shard-lifetime, not process-lifetime.
        fresh.spills += old.spills
        fresh.descriptors += old.descriptors
        fresh.bytes_in_place += old.bytes_in_place
        self._workers[index] = fresh
        self.worker_respawns += 1
        gap_reason = f"worker respawned: {reason}"
        self._respawn_log.append(
            {"shard": index, "generation": fresh.generation, "reason": reason}
        )
        for rq in self._queries.values():
            if not rq.parallel:
                continue
            try:
                fresh.conn.send(("register", rq.spec))
            except (BrokenPipeError, OSError):  # pragma: no cover - defensive
                break
            self._mark_gap(rq, index, gap_reason)

    def _mark_gap(self, rq: _RunningQuery, index: int, gap_reason: str) -> None:
        """Record the shard's data loss on every window still open: the
        dead worker's slices of those windows are unrecoverable."""
        gaps = rq.shard_gaps  # created in register()
        for window in rq.tracker.open_windows:
            gaps.setdefault(window, {})[f"shard-{index}"] = gap_reason

    def _shard_gaps_for(self, rq: _RunningQuery, window: int) -> dict[str, str]:
        return rq.shard_gaps.pop(window, {})

    def pool_health(self) -> dict[str, Any]:
        """Supervisor view: liveness, respawn history, and ring transport.

        ``transport`` reports the pool-wide mode (``"pipe"`` after a
        capability fallback even if some earlier workers still hold
        rings); the ``rings`` list gives the per-worker truth.
        """
        rings = []
        spills = 0
        bytes_in_place = 0
        for w in self._workers:
            ring = w.ring
            entry = {
                "shard": w.index,
                "generation": w.generation,
                "transport": "shm" if ring is not None else "pipe",
                "depth": 0,
                "high_water": 0,
                "capacity": 0,
                "descriptors": w.descriptors,
                "bytes_in_place": w.bytes_in_place,
                "spills": w.spills,
            }
            if ring is not None:
                entry.update(ring.stats())
            spills += w.spills
            bytes_in_place += w.bytes_in_place
            rings.append(entry)
        return {
            "workers": self.workers,
            "alive": sum(1 for w in self._workers if w.proc.is_alive()),
            "respawns": self.worker_respawns,
            "respawn_log": list(self._respawn_log),
            "transport": "shm" if self._use_shm else "pipe",
            "ring_spills": spills,
            "ring_bytes_in_place": bytes_in_place,
            "rings": rings,
        }

    def _send_to_worker(self, index: int, message: tuple, reason: str) -> bool:
        """Send with supervision: on a dead pipe, respawn and retry once
        (the fresh worker has the queries re-registered, so the retried
        slice lands instead of widening the gap).  Returns False only
        when even the fresh worker could not be reached."""
        try:
            self._workers[index].conn.send(message)
            return True
        except (BrokenPipeError, EOFError, OSError):
            self._supervise(index, reason)
        try:
            self._workers[index].conn.send(message)
            return True
        except (BrokenPipeError, EOFError, OSError):  # pragma: no cover
            return False

    # -- lifecycle -------------------------------------------------------------

    def register(
        self,
        spec: CentralQueryObject,
        planned_hosts: int = 1,
        targeted_hosts: int = 1,
        targeted_names: tuple[str, ...] = (),
        delivery_state: Optional[Callable[[], Mapping[str, str]]] = None,
    ) -> None:
        super().register(
            spec,
            planned_hosts=planned_hosts,
            targeted_hosts=targeted_hosts,
            targeted_names=targeted_names,
            delivery_state=delivery_state,
        )
        rq = self._queries[spec.query_id]
        # Raw selections preserve arrival order on the parent; everything
        # aggregating fans out.
        rq.parallel = rq.processor.is_aggregating
        #: window -> {"shard-<i>": reason} respawn gaps, reported as
        #: degraded coverage when the window closes.
        rq.shard_gaps = {}
        if rq.parallel:
            self._broadcast(("register", spec))

    def finish(self, query_id: str, drain: bool = True) -> ResultSet:
        rq = self._queries.get(query_id)
        parallel = rq is not None and rq.parallel
        if parallel and not drain:
            # Windows left open are never collected; drop the workers'
            # copies instead of leaking them.
            self._broadcast(("unregister", query_id))
            parallel = False
        results = super().finish(query_id, drain=drain)
        if parallel:
            self._broadcast(("unregister", query_id))
        return results

    def close(self) -> None:
        """Stop and reap the worker processes.

        Idempotent, and safe whatever state the workers are in: a dead
        worker's pipe error is swallowed, a stopped worker that ignores
        the graceful stop is terminated and, failing that, SIGKILLed.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            proc = worker.proc
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - stopped/unkillable
                proc.kill()
                proc.join(timeout=5)
        for worker in self._workers:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        # Rings are unlinked only now, after every worker has been joined
        # (or killed): the join is the cursor drain — no process still
        # maps a segment, no descriptor is mid-decode, so the unlink can
        # never race a reader or leak a SharedMemory segment.
        for worker in self._workers:
            if worker.ring is not None:
                worker.ring.destroy()
                worker.ring = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ingest ----------------------------------------------------------------

    def ingest(self, batch: EventBatch) -> None:
        """The in-process door: encode and take the one way in.  Raw
        selections stay on the parent, as objects."""
        rq = self._queries.get(batch.query_id)
        if rq is not None and rq.parallel:
            self.ingest_frame(encode_full_batch(batch))
        else:
            super().ingest(batch)

    def ingest_frame(self, data: bytes | memoryview) -> None:
        """Zero-copy ingest of a wire frame: scan, slice, ship.

        One skip-scan over the frame (:func:`scan_full_batch`) yields the
        batch metadata plus every event's ``request_id``, timestamp, host,
        and byte extents — no :class:`Event` is built on this process.
        Window segmentation and shard partitioning run over that header
        index; each worker's per-window slice then ships via
        :meth:`_ship_shard` — the bytes are written once into the
        worker's ring and only an integer descriptor crosses the pipe, or
        (ring full, no ring) the raw bytes go as ``("frames", query_id,
        window, count, payload)``.  Either way the worker decodes on its
        side.  Falls back to the decoded object path for non-parallel
        (raw-selection) queries, which run on the parent.
        """
        enc = scan_full_batch(data)
        meta = enc.meta
        rq = self._queries.get(meta.query_id)
        if rq is None:
            # Query ended while the frame was in flight — expected race.
            return
        if not rq.parallel:
            CentralEngine.ingest(self, enc.to_event_batch())
            return
        stats = self.stats
        stats.batches_received += 1
        stats.events_received += len(enc.frames)
        stats.bytes_received += enc.wire_size()

        self._ingest_metadata(rq, meta)
        if not enc.frames:
            return
        query_id = meta.query_id
        n = self.workers
        buf = enc.data
        segments = self._segment_events(rq, enc.frames, [f[1] for f in enc.frames])
        for window, frames in segments.items():
            hosts = rq.hosts_by_window.get(window)
            if hosts is None:
                hosts = rq.hosts_by_window[window] = set()
            shard_extents: list[Optional[list[tuple[int, int]]]] = [None] * n
            counts = [0] * n
            totals = [0] * n
            for rid, _ts, host, start, stop in frames:
                hosts.add(host)
                index = rid % n
                slot = shard_extents[index]
                if slot is None:
                    slot = shard_extents[index] = []
                slot.append((start, stop))
                counts[index] += 1
                totals[index] += stop - start
            for index, slot in enumerate(shard_extents):
                if slot is not None:
                    self._ship_shard(
                        index, query_id, window, counts[index], slot,
                        totals[index], buf,
                    )

    def _ship_shard(
        self,
        index: int,
        query_id: str,
        window: int,
        count: int,
        extents: list[tuple[int, int]],
        total: int,
        buf,
    ) -> None:
        """Ship one shard's slice of a scanned frame to its worker.

        Shared-memory fast path: reserve ``total`` ring bytes, copy each
        frame extent straight from the source buffer into the ring (the
        single copy on this path — no intermediate join), and send an
        integer descriptor.  Any failure degrades instead of blocking:

        * ring full / payload larger than the ring → spill the bytes over
          the pipe (``spills`` counter), never wait for the consumer;
        * pipe death after the reserve → supervise.  The reserved span
          belonged to the torn-down ring, and the fresh worker has a
          fresh ring — re-shipping the *descriptor* would point into
          freed memory, so the payload is re-sent as pipe bytes instead.
        """
        worker = self._workers[index]
        ring = worker.ring
        if ring is not None:
            reserved = ring.try_reserve(total)
            if reserved is not None:
                offset, release = reserved
                dest = ring.data
                pos = offset
                for start, stop in extents:
                    n = stop - start
                    dest[pos : pos + n] = buf[start:stop]
                    pos += n
                worker.seq += 1
                message = (
                    "shm", query_id, window, count,
                    offset, total, release, worker.seq, worker.generation,
                )
                try:
                    worker.conn.send(message)
                except (BrokenPipeError, EOFError, OSError):
                    self._supervise(index, "pipe error during ingest")
                else:
                    worker.descriptors += 1
                    worker.bytes_in_place += total
                    return
            self._workers[index].spills += 1
        payload = bytearray()
        for start, stop in extents:
            payload += buf[start:stop]
        self._send_to_worker(
            index,
            ("frames", query_id, window, count, bytes(payload)),
            "pipe error during ingest",
        )

    # -- window close ----------------------------------------------------------

    def _close_window(self, rq: _RunningQuery, window: int) -> WindowResult:
        if rq.parallel:
            query_id = rq.spec.query_id
            state = rq.windows.get(window)
            if state is None:
                state = rq.windows[window] = rq.processor.make_window_state()
            # A worker supervised here loses this window's slice; the
            # query may already be unregistered (finish() pops first), so
            # mark the gap on this rq explicitly as well.
            gap = lambda index, why: rq.shard_gaps.setdefault(  # noqa: E731
                window, {}
            ).setdefault(f"shard-{index}", f"worker respawned: {why}")
            asked: list[_Worker] = []
            for index in range(self.workers):
                worker = self._workers[index]
                try:
                    worker.conn.send(("close", query_id, window))
                except (BrokenPipeError, EOFError, OSError):
                    why = "pipe error at window close"
                    self._supervise(index, why)
                    gap(index, why)
                    continue
                asked.append(worker)
            errors: list[str] = []
            # Replies are merged in worker-index order: a fixed order keeps
            # merged float sums and Space-Saving contents deterministic.
            for worker in asked:
                index = worker.index
                try:
                    if not worker.conn.poll(self._worker_timeout):
                        raise _WorkerHung()
                    reply = worker.conn.recv()
                except _WorkerHung:
                    why = (
                        f"no close reply within {self._worker_timeout:g}s (hung)"
                    )
                    self._supervise(index, why)
                    gap(index, why)
                    continue
                except (EOFError, OSError):
                    why = "worker died at window close"
                    self._supervise(index, why)
                    gap(index, why)
                    continue
                if reply[0] == "error":
                    # Per-query failure isolation: remember, keep draining
                    # the other workers (their replies are already queued;
                    # abandoning them would desynchronize the pipes), then
                    # fail this query only.
                    errors.append(
                        f"shard worker {index} failed for query {query_id}: "
                        f"{reply[1]}"
                    )
                    continue
                _, groups, rows_processed, host_values = reply
                if groups or rows_processed:
                    state.merge_groups(groups, rows_processed)
                if host_values:
                    self._merge_host_values(rq, window, host_values)
            if errors:
                raise ScrubExecutionError("; ".join(errors))
        return super()._close_window(rq, window)

    def _merge_host_values(
        self, rq: _RunningQuery, window: int, host_values: Mapping[str, tuple]
    ) -> None:
        for host, (counts, totals, sum_sqs) in host_values.items():
            acc = rq.host_window_acc(window, host)
            for i, count in enumerate(counts):
                acc.counts[i] += count
                acc.totals[i] += totals[i]
                acc.sum_sqs[i] += sum_sqs[i]

    # -- plumbing --------------------------------------------------------------

    def _broadcast(self, message: tuple) -> None:
        for index in range(self.workers):
            self._send_to_worker(index, message, "pipe error during broadcast")
