"""SocketTransport: drop-not-block when central is gone, loss carried
back to its own query, and honest shipping against a live sink."""

import socket
import threading
import time

from repro.core.agent.transport import EventBatch, decode_full_batch
from repro.core.events import Event
from repro.live.protocol import MsgType, decode_message, encode_message_frame, recv_frame
from repro.live.transport import SocketTransport


def _dead_address() -> tuple[str, int]:
    """A localhost port that nothing is listening on."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return ("127.0.0.1", port)


def _batch(n_events: int = 2, seen: int = 1, query_id: str = "q00001") -> EventBatch:
    return EventBatch(
        host="h1",
        query_id=query_id,
        events=[Event("pv", {"url": "/x"}, i, 1.0, "h1") for i in range(n_events)],
        seen_counts={("pv", 0): seen},
    )


def _fast_transport(address, **kwargs) -> SocketTransport:
    kwargs.setdefault("connect_timeout", 0.2)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("backoff_cap", 0.05)
    return SocketTransport(address, "h1", **kwargs)


class _Sink:
    """A minimal scrubd stand-in: reads frames, answers PING with PONG."""

    def __init__(self) -> None:
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(4)
        self.address = self.listener.getsockname()
        self.batches: list[EventBatch] = []
        self.hellos: list[dict] = []
        self.conns: list[socket.socket] = []
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self.listener.accept()
            except OSError:
                return
            self.conns.append(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            while True:
                frame = recv_frame(conn)
                if frame is None:
                    return
                msg_type, payload = frame
                if msg_type == MsgType.DATA_HELLO:
                    self.hellos.append(decode_message(payload))
                elif msg_type == MsgType.BATCH:
                    self.batches.append(decode_full_batch(payload))
                elif msg_type == MsgType.PING:
                    conn.sendall(
                        encode_message_frame(MsgType.PONG, decode_message(payload))
                    )
        except OSError:
            return
        finally:
            conn.close()

    def close(self) -> None:
        self.listener.close()


class TestCentralDown:
    def test_send_never_blocks_and_drops_are_monotonic(self):
        transport = _fast_transport(_dead_address(), outbox_capacity=8)
        try:
            previous = 0
            for _ in range(120):
                started = time.perf_counter()
                transport.send(_batch())
                assert time.perf_counter() - started < 0.5
                assert transport.dropped_events >= previous
                previous = transport.dropped_events
                assert transport.outbox_depth <= 8
            assert transport.dropped_batches > 0
            assert transport.dropped_events > 0
            assert not transport.connected
        finally:
            transport.close()

    def test_drain_reports_failure(self):
        transport = _fast_transport(_dead_address(), outbox_capacity=4)
        try:
            transport.send(_batch())
            assert transport.drain(timeout=2.0) is False
        finally:
            transport.close()

    def test_loss_is_carried_onto_next_batch(self):
        transport = _fast_transport(_dead_address(), outbox_capacity=2)
        for _ in range(30):
            transport.send(_batch(n_events=2, seen=1))
        transport.close()
        assert not transport._thread.is_alive()
        unshipped = _outbox_items(transport)  # what the flusher never got to
        # Each batch send() was handed is lost once or still queued; a
        # loss-only batch lost again is not counted again.
        queued = sum(1 for _batch_, carried in unshipped if not carried)
        assert transport.dropped_batches == 30 - queued >= 1
        carried = EventBatch(host="h1", query_id="q00001", events=[])
        transport.send(carried)
        # The loss rides ahead of the next batch as a loss-only batch of
        # its own query; the batch itself leaves as it was written.
        *losses, sent = [batch for batch, _ in unshipped] + _outbox(transport)
        assert sent is carried and carried.dropped == 0 and carried.seen_counts == {}
        losses = [b for b in losses if b.event_count == 0]
        assert {b.query_id for b in losses} == {"q00001"}
        assert sum(b.dropped for b in losses) == transport.dropped_events >= 2
        assert sum(b.seen_counts.get(("pv", 0), 0) for b in losses) >= 1


def _outbox_items(transport: SocketTransport) -> list[tuple[EventBatch, bool]]:
    """Everything queued on a transport whose flusher has stopped, as
    ``(batch, carried)``: *carried* marks a loss-only batch."""
    items = []
    while not transport._outbox.empty():
        items.append(transport._outbox.get_nowait())
    return [item for item in items if item is not None]


def _outbox(transport: SocketTransport) -> list[EventBatch]:
    return [batch for batch, _carried in _outbox_items(transport)]


class TestOutboxFull:
    def test_a_full_outbox_keeps_the_carry_and_counts_each_loss_once(self):
        transport = _fast_transport(_dead_address(), outbox_capacity=1)
        transport._stop.set()
        transport._thread.join(timeout=5.0)
        transport.send(_batch(n_events=1))  # fills the outbox
        for query_id in ("qa", "qb"):
            transport._note_lost(_batch(n_events=2, query_id=query_id), carried=False)
        for _ in range(5):
            transport.send(_batch(n_events=1))
        assert transport.dropped_batches == 2 + 5
        assert transport.dropped_events == 2 * 2 + 5
        # Nothing was taken from the carry while the outbox was full.
        carried = {b.query_id: b.dropped for b in transport.carry.take(0.0)}
        assert carried == {"qa": 2, "qb": 2, "q00001": 5}
        transport.close()


class TestLossCarryConservation:
    """Loss goes back to the query that lost it (the carry is per query,
    held in a ``LossCarry`` and shipped as loss-only batches)."""

    def _quiesced_transport(self) -> SocketTransport:
        # Stop the flusher so the outbox only fills (huge capacity: no
        # producer-side drops); the test then plays both roles itself.
        transport = _fast_transport(_dead_address(), outbox_capacity=100_000)
        transport._stop.set()
        transport._thread.join(timeout=5.0)
        assert not transport._thread.is_alive()
        return transport

    def test_loss_stays_with_its_query(self):
        transport = self._quiesced_transport()
        lost = EventBatch(
            host="h1", query_id="qa", events=[], dropped=3, shed=4,
            seen_counts={("pv", 7): 5}, quarantined="cpu budget",
        )
        transport._note_lost(lost, carried=False)
        next_batch = EventBatch(
            host="h1", query_id="qb", events=[], seen_counts={("click", 9): 1}
        )
        transport.send(next_batch)
        carried, sent = _outbox(transport)
        assert (carried.query_id, carried.dropped, carried.shed) == ("qa", 3, 4)
        assert carried.seen_counts == {("pv", 7): 5}
        assert carried.quarantined == "cpu budget"
        assert sent.query_id == "qb"
        assert (sent.dropped, sent.shed, sent.seen_counts) == (0, 0, {("click", 9): 1})
        # The loss-only batch is a frame like any other.
        assert decode_full_batch(carried.frame) == carried
        transport.close()

    def test_interleaved_flusher_loss_and_producer_fold(self):
        transport = self._quiesced_transport()
        rounds, events_per_loss = 400, 3
        start = threading.Barrier(3)

        def flusher_side():
            start.wait()
            for _ in range(rounds):
                transport._note_lost(_batch(n_events=events_per_loss, seen=1), carried=False)

        def producer_side():
            start.wait()
            for _ in range(rounds):
                transport.send(EventBatch(host="h1", query_id="q00001", events=[]))

        threads = [
            threading.Thread(target=flusher_side),
            threading.Thread(target=producer_side),
        ]
        for t in threads:
            t.start()
        start.wait()
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()

        shipped = _outbox(transport) + transport.carry.take(0.0)
        assert sum(b.dropped for b in shipped) == rounds * events_per_loss
        assert sum(b.seen_counts.get(("pv", 0), 0) for b in shipped) == rounds
        transport.close()

    def test_two_producers_race_the_fold(self):
        # Two application threads logging concurrently while the flusher
        # records losses: counts still conserve exactly.
        transport = self._quiesced_transport()
        rounds = 300
        start = threading.Barrier(4)

        def flusher_side():
            start.wait()
            for _ in range(rounds):
                transport._note_lost(_batch(n_events=2, seen=1), carried=False)

        def producer_side():
            start.wait()
            for _ in range(rounds):
                transport.send(EventBatch(host="h1", query_id="q00001", events=[]))

        threads = [threading.Thread(target=flusher_side)] + [
            threading.Thread(target=producer_side) for _ in range(2)
        ]
        for t in threads:
            t.start()
        start.wait()
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()

        shipped = _outbox(transport) + transport.carry.take(0.0)
        assert sum(b.dropped for b in shipped) == rounds * 2
        assert sum(b.seen_counts.get(("pv", 0), 0) for b in shipped) == rounds
        transport.close()


class TestLiveLink:
    def test_ships_and_drains(self):
        sink = _Sink()
        transport = _fast_transport(sink.address)
        try:
            sent = [_batch(n_events=1), _batch(n_events=3)]
            for batch in sent:
                transport.send(batch)
            assert transport.drain(timeout=5.0) is True
            assert [b.events for b in sink.batches] == [b.events for b in sent]
            assert sink.hellos == [{"host": "h1"}]
            assert transport.batches_sent == 2
            assert transport.bytes_sent == sum(len(b.frame) + 5 for b in sent)
            assert transport.dropped_events == 0
            assert transport.connected
        finally:
            transport.close()
            sink.close()

    def test_stale_pong_does_not_complete_drain(self):
        # A PONG for an *earlier* drain (timed out, or replayed over a
        # flaky link) proves nothing about frames sent since; the drain
        # barrier must wait for the PONG echoing its own token.
        class _StaleSink(_Sink):
            def _serve(self, conn):
                try:
                    while True:
                        frame = recv_frame(conn)
                        if frame is None:
                            return
                        msg_type, payload = frame
                        if msg_type == MsgType.DATA_HELLO:
                            self.hellos.append(decode_message(payload))
                        elif msg_type == MsgType.PING:
                            token = decode_message(payload)["token"]
                            # First a stale PONG, then the real one.
                            conn.sendall(
                                encode_message_frame(
                                    MsgType.PONG, {"token": token - 1}
                                )
                            )
                            conn.sendall(
                                encode_message_frame(MsgType.PONG, {"token": token})
                            )
                except OSError:
                    return
                finally:
                    conn.close()

        sink = _StaleSink()
        transport = _fast_transport(sink.address)
        try:
            assert transport.drain(timeout=5.0) is True
        finally:
            transport.close()
            sink.close()

        class _OnlyStaleSink(_Sink):
            def _serve(self, conn):
                try:
                    while True:
                        frame = recv_frame(conn)
                        if frame is None:
                            return
                        msg_type, payload = frame
                        if msg_type == MsgType.PING:
                            token = decode_message(payload)["token"]
                            conn.sendall(
                                encode_message_frame(
                                    MsgType.PONG, {"token": token + 17}
                                )
                            )
                except OSError:
                    return
                finally:
                    conn.close()

        sink = _OnlyStaleSink()
        transport = _fast_transport(sink.address, io_timeout=0.5)
        try:
            # Never answered with our token: the drain must fail, not
            # accept the impostor.
            assert transport.drain(timeout=5.0) is False
        finally:
            transport.close()
            sink.close()

    def test_reconnects_after_link_drop(self):
        sink = _Sink()
        transport = _fast_transport(sink.address)
        try:
            transport.send(_batch())
            assert transport.drain(timeout=5.0) is True
            first_reconnects = transport.reconnects
            assert first_reconnects == 1
            for conn in sink.conns:  # the link dies under the flusher
                conn.close()
            # The next ships fail once, then the flusher redials the same
            # listener and re-announces itself with a fresh DATA_HELLO.
            deadline = time.time() + 5.0
            while len(sink.hellos) < 2 and time.time() < deadline:
                transport.send(_batch())
                transport.drain(timeout=1.0)
            assert len(sink.hellos) >= 2, "transport never re-registered"
            assert sink.hellos[-1] == {"host": "h1"}
            assert transport.reconnects > first_reconnects
        finally:
            transport.close()
            sink.close()
