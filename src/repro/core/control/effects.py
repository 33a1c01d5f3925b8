"""The control plane's vocabulary: message types in, effects out.

:class:`~repro.core.control.plane.ControlPlane` performs no I/O.  Every
entry point completes its own state transition and *returns* what the
outside world must now do, as an ordered list of four effect kinds; a
shell (``scrubd``'s asyncio loop, the in-process query server, the test
simulator) performs them in list order:

* :class:`Journal` — append this record to the query journal;
* :class:`Push` — deliver one message to one agent session (if that
  fails, the shell reports it with ``ControlPlane.push_failed``);
* :class:`Evict` — tell the session why (a structured ``ERROR`` with
  these fields), then close its channel;
* :class:`Reply` — answer the requester on the connection the request
  arrived on.

"Journal before fan-out" is therefore the order of a list, and no
handler can be suspended half-way through a transition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Union

__all__ = ["Effect", "Evict", "Journal", "MsgType", "Push", "Reply"]


class MsgType(enum.IntEnum):
    # channel hellos
    AGENT_HELLO = 0x01
    DATA_HELLO = 0x02
    HELLO_OK = 0x03
    # data channel
    BATCH = 0x10
    PING = 0x11
    PONG = 0x12
    # central → agent pushes
    INSTALL = 0x20
    UNINSTALL = 0x21
    #: After (re)registration: the full set of query ids that should be
    #: live on this host, so the agent can reconcile (drop stale ones).
    SYNC = 0x22
    # agent → central liveness lease renewal (control channel)
    HEARTBEAT = 0x23
    # query control
    SUBMIT = 0x30
    SUBMIT_OK = 0x31
    POLL = 0x32
    FINISH = 0x33
    RESULTS = 0x34
    STATS = 0x35
    STATS_OK = 0x36
    SHUTDOWN = 0x37
    SHUTDOWN_OK = 0x38
    ERROR = 0x3F


@dataclass(frozen=True)
class Journal:
    record: dict[str, Any]


@dataclass(frozen=True)
class Push:
    session: Any
    msg_type: MsgType
    message: dict[str, Any]


@dataclass(frozen=True)
class Evict:
    session: Any
    error: str
    message: str


@dataclass(frozen=True)
class Reply:
    msg_type: MsgType
    message: Any


Effect = Union[Journal, Push, Evict, Reply]
