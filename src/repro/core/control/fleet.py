"""Fleet lifecycle: dynamic membership and health-gated query rollout.

The control plane's safety story used to end at the per-host governor:
a query installed on every matching agent at once, and a bad probe was
only caught host by host after the damage had started.  This module
gives the :class:`~repro.core.control.plane.ControlPlane` the two pieces
real in-production debuggers treat as assumed infrastructure:

* **Membership** (:class:`FleetManager`): every host that ever
  registered is a :class:`FleetMember` with a lifecycle —
  ``live`` (control channel up, lease current) → ``disconnected``
  (channel gone or lease expired) → ``stale`` (silent past the age-out
  threshold; no longer part of the population ``@[...]`` resolves
  against, and named ``"stale"`` in :class:`WindowCoverage` instead of
  silently widening error bounds).  A re-registration at any point
  flips the member back to ``live`` with its new session epoch.

* **Rollout** (:class:`RolloutPolicy` / :class:`QueryRollout`): a
  ``SUBMIT`` may carry ``canary_hosts=N, widen_factor, bake_intervals``.
  The query installs on the first N hosts of its rendezvous order,
  bakes for ``bake_intervals`` healthy daemon ticks while scrubd
  watches per-host ``ewma_ns`` and governor quarantines from the
  heartbeats, then widens geometrically (``N → N*widen_factor → ...``)
  until the full targeted set runs it.  Any canary quarantine — or a
  cost regression past ``max_ewma_ns`` — aborts the whole rollout:
  uninstall everywhere, keep a structured :class:`RolloutAbort` that
  ``POLL``/``STATS`` surface.  Every state transition is journalled so
  a scrubd crash mid-rollout recovers into the same stage.

The state machines are synchronous and engine-free; the control plane
drives them from its ``tick`` and returns the INSTALL/UNINSTALL pushes
and journal records as effects for its shell to perform.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Optional

__all__ = [
    "FleetManager",
    "FleetMember",
    "QueryRollout",
    "RolloutAbort",
    "RolloutPolicy",
    "Session",
    "MEMBER_LIVE",
    "MEMBER_DISCONNECTED",
    "MEMBER_STALE",
    "ROLLOUT_CANARY",
    "ROLLOUT_WIDENING",
    "ROLLOUT_COMPLETE",
    "ROLLOUT_ABORTED",
]

MEMBER_LIVE = "live"
MEMBER_DISCONNECTED = "disconnected"
MEMBER_STALE = "stale"

ROLLOUT_CANARY = "canary"
ROLLOUT_WIDENING = "widening"
ROLLOUT_COMPLETE = "complete"
ROLLOUT_ABORTED = "aborted"

#: Default multiple of the lease window after which a silent host ages
#: out of membership (one clock: both derive from ``--lease``).
DEFAULT_STALE_LEASE_MULTIPLE = 2.0


class RolloutPolicy:
    """How a query spreads across its targeted hosts."""

    __slots__ = ("canary_hosts", "widen_factor", "bake_intervals", "max_ewma_ns")

    def __init__(
        self,
        canary_hosts: int,
        widen_factor: float = 2.0,
        bake_intervals: int = 2,
        max_ewma_ns: Optional[float] = None,
    ) -> None:
        if canary_hosts < 1:
            raise ValueError(f"canary_hosts must be >= 1, got {canary_hosts}")
        if not (widen_factor > 1.0 and math.isfinite(widen_factor)):
            raise ValueError(
                f"widen_factor must be finite and > 1 or the rollout never "
                f"grows, got {widen_factor}"
            )
        if bake_intervals < 1:
            raise ValueError(f"bake_intervals must be >= 1, got {bake_intervals}")
        if max_ewma_ns is not None and max_ewma_ns <= 0:
            raise ValueError(f"max_ewma_ns must be positive, got {max_ewma_ns}")
        self.canary_hosts = int(canary_hosts)
        self.widen_factor = float(widen_factor)
        self.bake_intervals = int(bake_intervals)
        self.max_ewma_ns = max_ewma_ns

    def quota(self, stage: int) -> int:
        """How many hosts may run the query at *stage* (0 = canary)."""
        return max(1, math.ceil(self.canary_hosts * self.widen_factor**stage))

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "canary_hosts": self.canary_hosts,
            "widen_factor": self.widen_factor,
            "bake_intervals": self.bake_intervals,
        }
        if self.max_ewma_ns is not None:
            out["max_ewma_ns"] = self.max_ewma_ns
        return out

    @classmethod
    def from_payload(cls, payload: Optional[Mapping[str, Any]]) -> Optional["RolloutPolicy"]:
        """``None``-propagating constructor for the SUBMIT payload."""
        if payload is None:
            return None
        return cls(
            canary_hosts=int(payload["canary_hosts"]),
            widen_factor=float(payload.get("widen_factor", 2.0)),
            bake_intervals=int(payload.get("bake_intervals", 2)),
            max_ewma_ns=payload.get("max_ewma_ns"),
        )

    def __repr__(self) -> str:
        return (
            f"RolloutPolicy(canary_hosts={self.canary_hosts}, "
            f"widen_factor={self.widen_factor}, "
            f"bake_intervals={self.bake_intervals}, "
            f"max_ewma_ns={self.max_ewma_ns})"
        )


class RolloutAbort:
    """Why a rollout was killed — structured, so POLL/STATS can show it."""

    __slots__ = ("reason", "host", "detail", "stage")

    def __init__(self, reason: str, host: str, detail: str, stage: int) -> None:
        #: ``"canary-quarantined"`` or ``"cost-regression"``.
        self.reason = reason
        self.host = host
        self.detail = detail
        self.stage = stage

    def as_dict(self) -> dict[str, Any]:
        return {
            "reason": self.reason,
            "host": self.host,
            "detail": self.detail,
            "stage": self.stage,
        }

    @classmethod
    def from_dict(cls, payload: Optional[Mapping[str, Any]]) -> Optional["RolloutAbort"]:
        if payload is None:
            return None
        return cls(
            payload["reason"], payload["host"], payload["detail"],
            int(payload["stage"]),
        )

    def __repr__(self) -> str:
        return (
            f"RolloutAbort({self.reason!r}, host={self.host!r}, "
            f"stage={self.stage})"
        )


class QueryRollout:
    """The per-query rollout state machine.

    ``order`` is the full rendezvous-ranked host list the query will
    eventually cover; ``installed`` is the prefix-plus-late-joiners that
    run it now.  The daemon calls :meth:`check_health` each tick, then
    either :meth:`record_abort` or :meth:`tick_healthy`; when the bake
    completes, :meth:`widen_tranche` names the next hosts to install and
    :meth:`note_installed` commits them.
    """

    def __init__(
        self,
        query_id: str,
        policy: RolloutPolicy,
        order: Iterable[str],
        installed: Iterable[str] = (),
        stage: int = 0,
        state: str = ROLLOUT_CANARY,
        abort: Optional[RolloutAbort] = None,
    ) -> None:
        self.query_id = query_id
        self.policy = policy
        self.order: list[str] = list(order)
        self.installed: list[str] = list(installed)
        self.stage = stage
        self.state = state
        self.abort = abort
        #: Consecutive healthy daemon ticks in the current stage; resets
        #: on widen (and on crash recovery — the stage is journalled, the
        #: bake timer deliberately restarts).
        self.healthy_ticks = 0

    # -- queries ---------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.state in (ROLLOUT_CANARY, ROLLOUT_WIDENING)

    def quota(self) -> int:
        return min(len(self.order), self.policy.quota(self.stage))

    def pending(self) -> list[str]:
        """Order hosts not yet installed, rank order preserved."""
        installed = set(self.installed)
        return [name for name in self.order if name not in installed]

    # -- membership interplay ---------------------------------------------------

    def admit(self, name: str) -> bool:
        """A matching host joined the fleet mid-rollout: append it to the
        rank order (it is installed when widening reaches it — or right
        away by the caller if the rollout already completed).  Returns
        True when the host was new to this rollout."""
        if name in self.order:
            return False
        self.order.append(name)
        if self.state == ROLLOUT_COMPLETE:
            # A completed rollout covers its whole order by definition;
            # the daemon installs on the newcomer immediately.
            self.installed.append(name)
        return True

    def retire(self, name: str) -> bool:
        """A host aged out of membership: drop it from the *pending* tail
        so the rollout can complete over the hosts that still exist.
        Installed hosts stay (coverage names them stale).  Returns True
        when the order changed."""
        if name in self.order and name not in self.installed:
            self.order.remove(name)
            return True
        return False

    # -- health gate ------------------------------------------------------------

    def check_health(
        self,
        quarantined: Mapping[str, str],
        ewma_ns: Mapping[str, float],
    ) -> Optional[RolloutAbort]:
        """One tick's health verdict over the installed hosts.

        *quarantined* is the engine's host → structured-reason map for
        this query; *ewma_ns* the latest per-host armed-cost EWMA from
        the heartbeats.  Any quarantine kills the rollout outright; a
        cost ceiling (``max_ewma_ns``) turns a regression into an abort
        *before* the governor has to bite.
        """
        for host in self.installed:
            if host in quarantined:
                return RolloutAbort(
                    "canary-quarantined", host, quarantined[host], self.stage
                )
        ceiling = self.policy.max_ewma_ns
        if ceiling is not None:
            for host in self.installed:
                cost = ewma_ns.get(host)
                if cost is not None and cost > ceiling:
                    return RolloutAbort(
                        "cost-regression",
                        host,
                        f"ewma_ns {cost:.0f} exceeds ceiling {ceiling:g}",
                        self.stage,
                    )
        return None

    # -- transitions ------------------------------------------------------------

    def tick_healthy(self) -> bool:
        """Count one healthy tick; True when the stage has baked and the
        daemon should widen."""
        if not self.active:
            return False
        self.healthy_ticks += 1
        return self.healthy_ticks >= self.policy.bake_intervals

    def widen_tranche(self) -> list[str]:
        """Advance one stage and return the hosts to install for it.
        Transitions to ``complete`` when the order is already covered."""
        if not self.active:
            return []
        self.stage += 1
        self.healthy_ticks = 0
        self.state = ROLLOUT_WIDENING
        tranche = self.pending()[: max(0, self.quota() - len(self.installed))]
        if not tranche and not self.pending():
            self.state = ROLLOUT_COMPLETE
        return tranche

    def note_installed(self, names: Iterable[str]) -> None:
        for name in names:
            if name not in self.installed:
                self.installed.append(name)
        if self.active and not self.pending():
            self.state = ROLLOUT_COMPLETE

    def record_abort(self, abort: RolloutAbort) -> None:
        self.state = ROLLOUT_ABORTED
        self.abort = abort

    # -- serialization ----------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        return {
            "state": self.state,
            "stage": self.stage,
            "policy": self.policy.as_dict(),
            "order": list(self.order),
            "installed": list(self.installed),
            "abort": self.abort.as_dict() if self.abort is not None else None,
        }


class Session:
    """One agent control session.  A shell creates it around its *peer*
    (a socket writer, an in-process agent); an accepted ``AGENT_HELLO``
    fills in the rest."""

    __slots__ = ("peer", "description", "epoch", "last_seen", "query_costs")

    def __init__(self, peer: Any = None) -> None:
        self.peer = peer
        #: ``None`` until a hello is accepted on this session.
        self.description: Optional[Any] = None
        #: Session epoch from the agent's hello; a reconnect carries a
        #: larger one and takes the registration over.
        self.epoch = 0
        #: Time of the last frame received on the control channel.
        self.last_seen = 0.0
        #: Latest per-query armed-cost counters from the agent heartbeat
        #: ({query_id: {"ewma_ns", "routed", "skipped", "rates_version"}}).
        self.query_costs: dict[str, Any] = {}

    @property
    def host(self) -> Optional[str]:
        return self.description.name if self.description is not None else None


class FleetMember:
    """One host the control plane has ever seen, across sessions."""

    __slots__ = ("name", "description", "epoch", "state", "conn", "_last_seen")

    def __init__(self, name: str, description: Any, epoch: int, now: float) -> None:
        self.name = name
        self.description = description
        self.epoch = epoch
        self.state = MEMBER_LIVE
        #: The live :class:`Session` (anything with ``last_seen`` and
        #: ``query_costs``); ``None`` once detached.
        self.conn: Optional[Any] = None
        self._last_seen = now

    @property
    def last_seen(self) -> float:
        if self.conn is not None:
            return self.conn.last_seen
        return self._last_seen

    def detach(self, now: float) -> None:
        if self.conn is not None:
            self._last_seen = max(self._last_seen, self.conn.last_seen)
            self.conn = None
        self.state = MEMBER_DISCONNECTED

    def query_costs(self) -> dict[str, Any]:
        return self.conn.query_costs if self.conn is not None else {}


class FleetManager:
    """The control plane's dynamic registry: who is in the fleet right now,
    who has gone quiet, and who has aged out entirely."""

    def __init__(
        self,
        lease_seconds: float,
        stale_after: Optional[float] = None,
    ) -> None:
        self.lease_seconds = lease_seconds
        #: Silence threshold for the ``stale`` age-out.  Derived from the
        #: lease unless set explicitly, so eviction and age-out share one
        #: clock (``--lease`` plumbs through to both).
        self.stale_after = (
            stale_after
            if stale_after is not None
            else lease_seconds * DEFAULT_STALE_LEASE_MULTIPLE
        )
        if self.stale_after < lease_seconds:
            raise ValueError(
                f"stale_after ({self.stale_after:g}s) must not undercut the "
                f"lease window ({lease_seconds:g}s): a host would age out "
                f"while its lease is still current"
            )
        self._members: dict[str, FleetMember] = {}

    # -- membership transitions ---------------------------------------------------

    def attach(self, description: Any, conn: Any, epoch: int, now: float) -> FleetMember:
        """A host registered (first time or rejoin): live, new epoch."""
        name = description.name
        member = self._members.get(name)
        if member is None:
            member = FleetMember(name, description, epoch, now)
            self._members[name] = member
        member.description = description
        member.epoch = epoch
        member.state = MEMBER_LIVE
        member.conn = conn
        member._last_seen = now
        return member

    def detach(self, name: str, now: float) -> None:
        """The host's control channel died or its lease expired."""
        member = self._members.get(name)
        if member is not None:
            member.detach(now)

    def age_out(self, now: float) -> list[FleetMember]:
        """Flip members silent past ``stale_after`` to ``stale`` (once);
        returns the members that transitioned this call."""
        newly_stale = []
        for member in self._members.values():
            if member.state == MEMBER_STALE or member.conn is not None:
                continue
            if now - member.last_seen > self.stale_after:
                member.state = MEMBER_STALE
                newly_stale.append(member)
        return newly_stale

    # -- lookups -------------------------------------------------------------------

    def member(self, name: str) -> Optional[FleetMember]:
        return self._members.get(name)

    def conn(self, name: str) -> Optional[Any]:
        member = self._members.get(name)
        return member.conn if member is not None else None

    def live(self) -> list[FleetMember]:
        return [m for m in self._members.values() if m.conn is not None]

    def lease_lapsed(self, now: float) -> list[FleetMember]:
        """Live members silent past the lease window (the plane turns
        each into an ``Evict`` effect)."""
        return [
            m for m in self.live() if now - m.last_seen > self.lease_seconds
        ]

    def ewma_by_host(self, query_id: str) -> dict[str, float]:
        """Latest heartbeat ewma_ns for one query across live members."""
        out: dict[str, float] = {}
        for member in self.live():
            cost = member.query_costs().get(query_id)
            if isinstance(cost, dict) and "ewma_ns" in cost:
                out[member.name] = float(cost["ewma_ns"])
        return out

    def stats(self, now: float) -> list[dict[str, Any]]:
        """The STATS ``fleet`` section: every member, every state."""
        return [
            {
                "host": member.name,
                "state": member.state if member.conn is None else MEMBER_LIVE,
                "epoch": member.epoch,
                "last_seen_age": max(0.0, now - member.last_seen),
                "services": sorted(member.description.services),
                "datacenter": member.description.datacenter,
                "query_costs": member.query_costs(),
            }
            for member in sorted(self._members.values(), key=lambda m: m.name)
        ]

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members
