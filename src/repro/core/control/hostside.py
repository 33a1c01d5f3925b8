"""The host side of the control channel: apply one pushed message.

``INSTALL`` / ``UNINSTALL`` / ``SYNC`` mean the same thing to every
:class:`~repro.core.agent.agent.ScrubAgent`, whether the push crossed a
socket (``LiveAgent``), was applied in-process (``ScrubQueryServer``)
or was delivered by a test simulator — so there is one handler.

Install pushes carry the query *text*; the host re-plans it against its
own registry — the planner is deterministic in (text, query id), so
every process derives identical host query objects and sampling
decisions without shipping compiled objects across the wire.
"""

from __future__ import annotations

from typing import Any

from ..agent.agent import ScrubAgent
from ..events import EventRegistry
from ..query.parser import parse_query
from ..query.planner import plan_query
from ..query.validator import validate_query
from .effects import MsgType

__all__ = ["apply_control"]


def apply_control(
    agent: ScrubAgent, registry: EventRegistry, msg_type: MsgType, message: dict[str, Any]
) -> bool:
    """Apply one control push to *agent*.  Returns True when an
    ``INSTALL`` armed a query that was not running here before.

    Raises whatever planning or arming raises (a query this host cannot
    plan, a malformed message); the caller decides whether that is fatal
    — a ``LiveAgent`` logs it and keeps its control loop alive, the
    in-process server rolls the submit back.
    """
    if msg_type == MsgType.INSTALL:
        return _install(agent, registry, message)
    if msg_type == MsgType.UNINSTALL:
        agent.uninstall(message["query_id"])
    elif msg_type == MsgType.SYNC:
        # The full set of query ids that should be live here; drop
        # anything local the control plane no longer knows about (it
        # finished, or died with a journal-less scrubd).
        wanted = set(message.get("query_ids", ()))
        for query_id in agent.active_query_ids:
            if query_id not in wanted:
                agent.uninstall(query_id)
    return False


def _install(agent: ScrubAgent, registry: EventRegistry, message: dict[str, Any]) -> bool:
    query_id = message["query_id"]
    armed = query_id not in agent.active_query_ids
    if armed:
        plan = plan_query(validate_query(parse_query(message["query"]), registry), query_id)
        for host_object in plan.host_objects:
            agent.install(host_object, message["activates_at"], message["expires_at"])
    # A fresh install plans at the submitted rates, and a replay (on
    # reconnect, or a retune's fan-out) may carry a newer version than
    # the one applied here.  The agent's version compare makes stale or
    # duplicate replays a no-op, so applying is idempotent.
    rates = message.get("rates")
    if rates is not None:
        agent.retune(query_id, float(rates["event_rate"]), version=int(rates["version"]))
    return armed
