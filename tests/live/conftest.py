"""Shared harness: a real ScrubDaemon serving on an ephemeral port from
a background thread's event loop, so tests talk to it over real TCP."""

import asyncio
import threading
import time

import pytest

from repro.live.server import ScrubDaemon


class DaemonHarness:
    """Run a ScrubDaemon on its own event-loop thread."""

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("port", 0)
        kwargs.setdefault("tick_interval", 0.05)
        self.daemon = ScrubDaemon(**kwargs)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name="scrubd-test", daemon=True
        )

    def _serve(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def body() -> None:
            await self.daemon.start()
            self._ready.set()
            try:
                await self.daemon.stopped()
            finally:
                await self.daemon.stop()

        self.loop.run_until_complete(body())

    def start(self) -> "DaemonHarness":
        self._thread.start()
        assert self._ready.wait(5.0), "scrubd did not start within 5s"
        return self

    @property
    def address(self) -> tuple[str, int]:
        return (self.daemon.host, self.daemon.port)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.daemon.request_stop)
        self._thread.join(timeout=5.0)
        self.loop.close()


@pytest.fixture
def harness():
    h = DaemonHarness().start()
    yield h
    h.stop()


def wait_for(predicate, timeout: float = 5.0, interval: float = 0.02) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())
