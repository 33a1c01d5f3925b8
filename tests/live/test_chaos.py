"""ChaosProxy: transparent forwarding, seeded frame faults, partitions."""

import socket
import threading

from repro.live.chaos import ChaosProxy, FaultPlan
from repro.live.protocol import MsgType, decode_message, encode_message_frame, recv_frame

from .conftest import wait_for


class _Echo:
    """A frame echo server: answers every PING with a PONG of the same
    payload, so tests can count what survived the proxy."""

    def __init__(self) -> None:
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.address = self.listener.getsockname()
        self.received = 0
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _addr = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            while True:
                frame = recv_frame(conn)
                if frame is None:
                    return
                msg_type, payload = frame
                self.received += 1
                if msg_type == MsgType.PING:
                    conn.sendall(
                        encode_message_frame(MsgType.PONG, decode_message(payload))
                    )
        except OSError:
            return
        finally:
            conn.close()

    def close(self) -> None:
        self.listener.close()


def _ping_through(
    proxy: ChaosProxy, count: int, timeout: float = 5.0, expect: int | None = None
) -> int:
    """Send `count` PINGs through the proxy; return how many PONGs came
    back before the link went quiet.  Reads `expect` replies (default
    `count`) before closing — closing tears the link down, so a test
    whose proxy multiplies frames must wait for all of them."""
    answered = 0
    with socket.create_connection(proxy.address, timeout=timeout) as sock:
        sock.settimeout(timeout)
        try:
            for token in range(count):
                sock.sendall(encode_message_frame(MsgType.PING, {"token": token}))
            for _ in range(count if expect is None else expect):
                frame = recv_frame(sock)
                if frame is None:
                    break
                answered += 1
        except (OSError, TimeoutError):
            pass
    return answered


class TestForwarding:
    def test_transparent_without_faults(self):
        echo = _Echo()
        with ChaosProxy(echo.address) as proxy:
            assert _ping_through(proxy, 20) == 20
            assert proxy.frames_dropped == 0
            assert proxy.frames_duplicated == 0
            # Both directions count; the pump increments just after the
            # write, so allow it a beat to catch up with the last PONG.
            assert wait_for(lambda: proxy.frames_forwarded >= 40)
        echo.close()

    def test_seeded_runs_are_deterministic(self):
        echo = _Echo()
        plan = FaultPlan(drop_rate=0.3)
        outcomes = []
        for _ in range(2):
            with ChaosProxy(echo.address, plan=plan, seed=42) as proxy:
                # One request-response at a time so a dropped PING stalls
                # only its own response (read timeout), not later ones.
                got = 0
                with socket.create_connection(proxy.address, timeout=2.0) as sock:
                    sock.settimeout(0.1)
                    for token in range(20):
                        sock.sendall(
                            encode_message_frame(MsgType.PING, {"token": token})
                        )
                        try:
                            if recv_frame(sock) is not None:
                                got += 1
                        except (OSError, TimeoutError):
                            continue
                outcomes.append((got, proxy.frames_dropped))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] > 0  # the plan did bite
        echo.close()

    def test_fault_plan_filters_by_type(self):
        echo = _Echo()
        # Drop every HEARTBEAT; PINGs must sail through untouched.
        plan = FaultPlan.only([MsgType.HEARTBEAT], drop_rate=1.0)
        with ChaosProxy(echo.address, plan=plan) as proxy:
            with socket.create_connection(proxy.address, timeout=2.0) as sock:
                sock.settimeout(2.0)
                for token in range(5):
                    sock.sendall(
                        encode_message_frame(MsgType.HEARTBEAT, {"host": "h"})
                    )
                    sock.sendall(encode_message_frame(MsgType.PING, {"token": token}))
                for _ in range(5):
                    assert recv_frame(sock) is not None
            assert proxy.frames_dropped == 5
        assert echo.received == 5  # only the PINGs arrived
        echo.close()

    def test_concurrent_links_conserve_counter_totals(self):
        # Many pump threads increment the shared counters at once; they
        # do so under the proxy lock, so stats() totals are exact — not
        # "roughly 2*links*pings" with lost updates.
        echo = _Echo()
        links, pings = 8, 50
        with ChaosProxy(echo.address) as proxy:
            answered = [0] * links

            def run(i: int) -> None:
                answered[i] = _ping_through(proxy, pings)

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(links)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert answered == [pings] * links
            # Every PING and every PONG is forwarded exactly once.
            total = 2 * links * pings
            assert wait_for(lambda: proxy.stats()["frames_forwarded"] == total)
            stats = proxy.stats()
            assert stats["frames_dropped"] == 0
            assert stats["frames_duplicated"] == 0
            assert stats["connections_accepted"] == links
        echo.close()

    def test_duplicates_are_injected(self):
        echo = _Echo()
        plan = FaultPlan.only([MsgType.PING], dup_rate=1.0)
        with ChaosProxy(echo.address, plan=plan) as proxy:
            # 5 duplicated PINGs already yield 10 PONGs: reading only 10
            # could close the link before the proxy pumped the other 5.
            assert _ping_through(proxy, 10, expect=20) == 20
            assert proxy.frames_duplicated == 10
        assert echo.received == 20
        echo.close()


class TestPartition:
    def test_partition_severs_and_refuses_then_heals(self):
        echo = _Echo()
        with ChaosProxy(echo.address) as proxy:
            sock = socket.create_connection(proxy.address, timeout=2.0)
            sock.settimeout(2.0)
            sock.sendall(encode_message_frame(MsgType.PING, {"token": 1}))
            assert recv_frame(sock) is not None
            assert proxy.active_links == 1

            proxy.partition()
            # The live link dies...
            assert wait_for(lambda: proxy.active_links == 0)
            try:
                sock.sendall(encode_message_frame(MsgType.PING, {"token": 2}))
                assert recv_frame(sock) is None
            except OSError:
                pass  # reset instead of EOF: equally severed
            sock.close()
            # ...and new connections are cut off before reaching scrubd.
            with socket.create_connection(proxy.address, timeout=2.0) as probe:
                probe.settimeout(2.0)
                try:
                    probe.sendall(encode_message_frame(MsgType.PING, {"token": 3}))
                    assert recv_frame(probe) is None
                except OSError:
                    pass
            assert wait_for(lambda: proxy.connections_refused >= 1)

            proxy.heal()
            assert _ping_through(proxy, 3) == 3
        echo.close()
