"""ScrubDaemon over real TCP: registration, query lifecycle, the data
channel into the engine, and the reap tick."""

import socket
import time

import pytest

from repro.core.agent.transport import EventBatch, encode_full_batch
from repro.core.events import Event
from repro.core.query.errors import ScrubError
from repro.live.client import ControlClient, LiveAgent, LiveAgentError
from repro.live.protocol import (
    MsgType,
    decode_message,
    encode_batch_frame,
    encode_frame,
    encode_message_frame,
    recv_frame,
)
from repro.live.server import main as scrubd_main

from .conftest import DaemonHarness, wait_for

QUERY = (
    "select pv.url, COUNT(*) from pv @[Service in Frontends] "
    "window 10s group by pv.url duration 600s;"
)

PV_FIELDS = [("url", "string"), ("latency_ms", "double")]


def _agent(harness, name: str, services=("Frontends",)) -> LiveAgent:
    agent = LiveAgent(
        harness.address, name, services=services, flush_batch_size=10
    )
    agent.define_event("pv", PV_FIELDS)
    agent.start()
    return agent


@pytest.fixture
def ctl(harness):
    client = ControlClient(harness.address)
    yield client
    client.close()


class TestLifecycle:
    def test_group_by_across_two_hosts(self, harness, ctl):
        a0 = _agent(harness, "web-0")
        a1 = _agent(harness, "web-1")
        try:
            handle = ctl.submit(QUERY)
            qid = handle["query_id"]
            assert qid == "q00001"
            assert sorted(handle["targeted_hosts"]) == ["web-0", "web-1"]
            assert wait_for(lambda: qid in a0.installed_query_ids)
            assert wait_for(lambda: qid in a1.installed_query_ids)

            # One shared timestamp → exactly one window holds everything.
            stamp = time.time()
            rid = 0
            for url, count in (("/a", 12), ("/b", 6)):
                for _ in range(count):
                    a0.log("pv", url=url, latency_ms=1.0, request_id=rid, timestamp=stamp)
                    rid += 1
            for _ in range(6):
                a1.log("pv", url="/a", latency_ms=2.0, request_id=rid, timestamp=stamp)
                rid += 1
            assert a0.drain(10.0) and a1.drain(10.0)

            results = ctl.finish(qid)
            assert results.query_id == qid
            assert len(results.windows) == 1
            window = results.windows[0]
            assert window.contributing_hosts == 2
            counts = {row[0]: row[1] for row in window.rows}
            assert counts == {"/a": 18, "/b": 6}
        finally:
            a0.close()
            a1.close()

    def test_poll_while_running_then_finish(self, harness, ctl):
        agent = _agent(harness, "web-0")
        try:
            qid = ctl.submit(QUERY)["query_id"]
            assert wait_for(lambda: qid in agent.installed_query_ids)
            agent.log("pv", url="/a", latency_ms=1.0, request_id=1)
            assert agent.drain(10.0)
            partial = ctl.poll(qid)
            assert partial.query_id == qid  # open windows not emitted yet
            final = ctl.finish(qid)
            assert sum(len(w.rows) for w in final.windows) == 1
            # Finishing twice returns the retained results, not an error.
            assert ctl.finish(qid) == final
        finally:
            agent.close()

    def test_query_reaped_after_span(self):
        harness = DaemonHarness(drain_margin=0.2).start()
        ctl = ControlClient(harness.address)
        agent = _agent(harness, "web-0")
        try:
            qid = ctl.submit(
                "select pv.url, COUNT(*) from pv @[Service in Frontends] "
                "window 1s group by pv.url duration 1s;"
            )["query_id"]
            # The tick reaps it once wall time passes expiry + margin.
            assert wait_for(lambda: qid in ctl.stats()["finished"], timeout=10.0)
            assert qid not in ctl.stats()["running"]
            assert ctl.finish(qid).query_id == qid
        finally:
            agent.close()
            ctl.close()
            harness.stop()


class TestRejections:
    def test_unknown_query_id(self, harness, ctl):
        with pytest.raises(ScrubError, match="QueryNotFound"):
            ctl.poll("q99999")

    def test_no_matching_host(self, harness, ctl):
        agent = _agent(harness, "web-0")
        try:
            with pytest.raises(ScrubError, match="no registered host"):
                ctl.submit(
                    "select pv.url, COUNT(*) from pv @[Service in Backends] "
                    "window 10s group by pv.url duration 600s;"
                )
        finally:
            agent.close()

    def test_unknown_event_type(self, harness, ctl):
        with pytest.raises(ScrubError):
            ctl.submit("select COUNT(*) from nosuch duration 600s;")

    @pytest.mark.parametrize(
        "deep",
        ["(" * 200 + "pv.latency_ms" + ")" * 200, "not " * 2_000 + "pv.latency_ms > 1"],
        ids=["parentheses", "not"],
    )
    def test_over_deep_query_is_a_syntax_error_and_the_connection_kept(self, harness, ctl, deep):
        """Used to escape the parser as a RecursionError and reach the
        submitter as ``internal``."""
        agent = _agent(harness, "web-0")
        try:
            with pytest.raises(ScrubError, match="ScrubSyntaxError.*nests deeper than 64 levels"):
                ctl.submit(f"select COUNT(*) from pv where {deep} duration 600s;")
            # Same connection, next request: served.
            handle = ctl.submit(QUERY)
            assert handle["targeted_hosts"] == ["web-0"]
            ctl.finish(handle["query_id"])
        finally:
            agent.close()

    def test_newer_epoch_takes_over_stale_registration(self, harness):
        # A restarted process re-registers with a fresh (newer) epoch and
        # must take the name over; the stale session stands down instead
        # of fighting for it.
        first = LiveAgent(
            harness.address, "web-0", services=["Frontends"], reconnect=False
        )
        first.define_event("pv", PV_FIELDS)
        first.start()
        second = LiveAgent(
            harness.address, "web-0", services=["Frontends"], reconnect=False
        )
        second.define_event("pv", PV_FIELDS)
        try:
            second.start()  # succeeds: newer epoch supersedes
            assert second.epoch > first.epoch
            assert wait_for(lambda: first._superseded)
        finally:
            second.close()
            first.close()

    def test_stale_epoch_rejected_as_duplicate(self, harness):
        import socket as socket_mod

        from repro.live.protocol import (
            MsgType,
            decode_message,
            encode_message_frame,
            recv_frame,
        )

        first = _agent(harness, "web-0")
        try:
            # A hello carrying an *older* epoch is a zombie of a session
            # the daemon already superseded — refuse, don't evict.
            with socket_mod.create_connection(harness.address, timeout=5.0) as raw:
                raw.sendall(
                    encode_message_frame(
                        MsgType.AGENT_HELLO,
                        {
                            "host": "web-0",
                            "epoch": 0,
                            "services": ["Frontends"],
                            "datacenter": "dc1",
                            "schemas": [],
                        },
                    )
                )
                frame = recv_frame(raw)
                assert frame is not None
                msg_type, payload = frame
                assert msg_type == MsgType.ERROR
                message = decode_message(payload)
                assert message["error"] == "duplicate-host"
                assert "epoch" in message["message"]
        finally:
            first.close()

    def test_conflicting_schema_rejected(self, harness):
        first = _agent(harness, "web-0")
        other = LiveAgent(harness.address, "web-1", services=["Frontends"])
        other.define_event("pv", [("url", "long")])
        try:
            with pytest.raises(LiveAgentError):
                other.start()
        finally:
            other.close()
            first.close()


class TestBadRequests:
    """A malformed control message gets a structured refusal — an ERROR
    frame with ``bad-request`` — never a bare close, an ``internal``
    error, or an exception in asyncio's connection callback."""

    @staticmethod
    def _exchange(harness, msg_type, message):
        with socket.create_connection(harness.address, timeout=5.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(encode_message_frame(msg_type, message))
            frame = recv_frame(sock)
        assert frame is not None, "scrubd closed the connection without a word"
        return frame[0], decode_message(frame[1])

    @pytest.fixture
    def unhandled(self, harness):
        """Whatever reaches the daemon loop's exception handler."""
        seen = []
        harness.loop.call_soon_threadsafe(
            harness.loop.set_exception_handler, lambda _loop, ctx: seen.append(ctx)
        )
        return seen

    @pytest.mark.parametrize(
        "hello",
        [
            {"epoch": 1, "services": ["Frontends"]},
            {"host": "", "epoch": 1},
            {"host": "web-0", "epoch": "abc"},
            {"host": "web-0", "epoch": 1, "services": 7},
            {"host": "web-0", "epoch": 1, "services": "Frontends"},
            {"host": "web-0", "epoch": 1, "datacenter": 3},
            {"host": "web-0", "epoch": 1, "schemas": [{"name": "pv"}]},
        ],
        ids=["no-host", "empty-host", "epoch-str", "services-int", "services-str",
             "datacenter-int", "schema-without-fields"],
    )
    def test_bad_hello_is_refused_and_registers_nothing(self, harness, ctl, unhandled, hello):
        msg_type, reply = self._exchange(harness, MsgType.AGENT_HELLO, hello)
        assert msg_type == MsgType.ERROR
        assert reply["error"] == "bad-request"
        stats = ctl.stats()
        assert stats["control_rejected"] == 1
        assert stats["hosts"] == [] and stats["fleet"] == []
        assert len(harness.daemon.plane.registry) == 0
        assert unhandled == []

    @pytest.mark.parametrize(
        "msg_type, message",
        [
            (MsgType.SUBMIT, {}),
            (MsgType.SUBMIT, {"query": 7}),
            (MsgType.SUBMIT, {"query": QUERY, "rollout": "fast"}),
            (MsgType.POLL, {}),
            (MsgType.FINISH, {"query_id": 3}),
        ],
        ids=["submit-empty", "submit-int", "submit-rollout-str", "poll-empty", "finish-int"],
    )
    def test_bad_request_is_answered_not_internal(self, harness, ctl, msg_type, message):
        reply_type, reply = self._exchange(harness, msg_type, message)
        assert reply_type == MsgType.ERROR
        assert reply["error"] == "bad-request"
        stats = ctl.stats()
        assert stats["control_rejected"] == 1
        assert stats["running"] == [] and stats["finished"] == []

    def test_heartbeat_with_garbage_costs_is_counted_and_the_lease_renewed(self, harness, ctl):
        agent = _agent(harness, "web-0")
        try:
            agent._control.sendall(
                encode_message_frame(MsgType.HEARTBEAT, {"query_costs": ["not", "a", "map"]})
            )
            assert wait_for(lambda: ctl.stats()["control_rejected"] == 1)
            assert [h["host"] for h in ctl.stats()["hosts"]] == ["web-0"]
        finally:
            agent.close()


class TestStats:
    def test_stats_reflect_hosts_and_traffic(self, harness, ctl):
        agent = _agent(harness, "web-0")
        try:
            stats = ctl.stats()
            assert [h["host"] for h in stats["hosts"]] == ["web-0"]
            assert stats["hosts"][0]["services"] == ["Frontends"]
            assert stats["uptime"] >= 0.0

            qid = ctl.submit(QUERY)["query_id"]
            assert qid in ctl.stats()["running"]
            assert wait_for(lambda: qid in agent.installed_query_ids)
            for rid in range(8):
                agent.log("pv", url="/a", latency_ms=1.0, request_id=rid)
            assert agent.drain(10.0)
            engine = ctl.stats()["engine"]
            assert engine["events_received"] == 8
            # The daemon counts what the host sent, batch for batch and
            # byte for byte (5 = frame length prefix + type byte).
            sent = agent.transport
            assert engine["batches_received"] == sent.batches_sent >= 1
            assert engine["bytes_received"] == (
                sent.bytes_sent - 5 * sent.batches_sent
            )
            ctl.finish(qid)
            assert qid in ctl.stats()["finished"]
        finally:
            agent.close()

    def test_agent_unregisters_on_disconnect(self, harness, ctl):
        agent = _agent(harness, "web-0")
        assert [h["host"] for h in ctl.stats()["hosts"]] == ["web-0"]
        agent.close()
        assert wait_for(lambda: not ctl.stats()["hosts"])


@pytest.fixture(params=(0, 2), ids=("serial", "pool"))
def engine_harness(request):
    """A daemon on each engine: both must go through the one data door."""
    h = DaemonHarness(workers=request.param).start()
    yield h
    h.stop()


class TestDataChannel:
    """Raw frames on a data socket, so the test controls every byte."""

    @staticmethod
    def _running_query(harness):
        """An agent for host ``h1`` (a SUBMIT needs a registered target)
        and a query installed on it; the agent itself logs nothing."""
        agent = _agent(harness, "h1")
        ctl = ControlClient(harness.address)
        qid = ctl.submit(QUERY)["query_id"]
        assert wait_for(lambda: qid in agent.installed_query_ids)
        return agent, ctl, qid

    @staticmethod
    def _data_socket(harness) -> socket.socket:
        sock = socket.create_connection(harness.address, timeout=5.0)
        sock.sendall(encode_message_frame(MsgType.DATA_HELLO, {"host": "h1"}))
        return sock

    @staticmethod
    def _drain(sock: socket.socket) -> None:
        sock.sendall(encode_message_frame(MsgType.PING, {"token": 1}))
        frame = recv_frame(sock)
        assert frame is not None, "scrubd closed the data connection"
        msg_type, payload = frame
        assert msg_type == MsgType.PONG
        assert decode_message(payload)["token"] == 1

    @staticmethod
    def _batch(qid: str, stamp: float, rids=range(8), **metadata) -> EventBatch:
        events = [
            Event("pv", {"url": "/a", "latency_ms": 1.0}, rid, stamp, "h1")
            for rid in rids
        ]
        return EventBatch(host="h1", query_id=qid, events=events, **metadata)

    def test_shed_and_quarantine_survive_an_event_carrying_batch(
        self, engine_harness
    ):
        agent, ctl, qid = self._running_query(engine_harness)
        try:
            stamp = time.time()
            window = int(stamp // 10)  # QUERY: window 10s
            batch = self._batch(
                qid,
                stamp,
                seen_counts={("pv", window): 18},
                dropped=3,
                shed=7,
                quarantined="impact-budget-exceeded: test",
            )
            with self._data_socket(engine_harness) as sock:
                # The query's first batch: no window is open yet, so the
                # engine books drops and sheds on the one seen_counts names.
                sock.sendall(encode_batch_frame(batch))
                self._drain(sock)
            stats = ctl.stats()
            assert stats["engine"]["events_received"] == 8
            assert stats["engine"]["events_shed"] == 7
            assert stats["quarantines"][qid]["h1"].startswith("impact-budget")
            results = ctl.finish(qid)
            (window_result,) = results.windows
            assert window_result.host_shed == 7
            assert window_result.host_dropped == 3
            assert window_result.coverage.quarantined["h1"].startswith(
                "impact-budget"
            )
        finally:
            ctl.close()
            agent.close()

    def test_corrupt_batch_is_counted_and_the_connection_kept(
        self, engine_harness
    ):
        agent, ctl, qid = self._running_query(engine_harness)
        try:
            payload = encode_full_batch(self._batch(qid, time.time()))
            with self._data_socket(engine_harness) as sock:
                sock.sendall(encode_frame(MsgType.BATCH, payload[: len(payload) // 2]))
                sock.sendall(encode_frame(MsgType.BATCH, payload))
                self._drain(sock)
            engine = ctl.stats()["engine"]
            assert engine["batches_rejected"] == 1
            assert engine["batches_received"] == 1
            assert engine["events_received"] == 8
        finally:
            ctl.close()
            agent.close()

    @pytest.mark.parametrize("stamp", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_timestamp_batch_is_rejected_whole(self, engine_harness, stamp):
        """One unwindowable event must not half-ingest its batch: the
        frame is rejected at the codec, counted, and the next one lands."""
        agent, ctl, qid = self._running_query(engine_harness)
        try:
            now = time.time()
            poisoned = self._batch(qid, now, seen_counts={("pv", 0): 8}, dropped=3)
            poisoned.events[-1].timestamp = stamp
            with self._data_socket(engine_harness) as sock:
                sock.sendall(encode_batch_frame(poisoned))
                sock.sendall(encode_batch_frame(self._batch(qid, now)))
                self._drain(sock)
            engine = ctl.stats()["engine"]
            assert engine["batches_rejected"] == 1
            assert engine["batches_received"] == 1
            assert engine["events_received"] == 8
            (window,) = ctl.finish(qid).windows
            assert window.host_dropped == 0
        finally:
            ctl.close()
            agent.close()


def test_shards_flag_is_gone_not_ignored(capsys):
    with pytest.raises(SystemExit) as usage:
        scrubd_main(["--shards", "2"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --shards" in capsys.readouterr().err
