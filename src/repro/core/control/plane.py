"""The Scrub control plane: every decision, no I/O.

Execution of a query (paper Section 4, Fig. 3): parse and validate the
text, generate a query id, place the host query objects on the hosts
the target expression resolves to, register the central query object at
ScrubCentral, collect, and uninstall everywhere when the span ends.
:class:`ControlPlane` is that job, once — registration, epoch takeover
and schema merge; lease expiry and stale age-out; SUBMIT admission with
rendezvous placement; install replay and late join; health-gated canary
rollout; closed-loop rate retunes; POLL / FINISH / reap; ``STATS``;
journal recovery — as one synchronous object.

Every entry point takes the message and ``now``, completes its own
state transition, and **returns an ordered list of effects**
(:mod:`repro.core.control.effects`): journal records to append,
messages to push to agent sessions, sessions to evict, the reply to
the requester.  A *shell* performs them in order and reports a failed
push back with :meth:`ControlPlane.push_failed`.  There are two:
``repro.live.server.ScrubDaemon`` moves the effects over sockets, and
``repro.core.server.ScrubQueryServer`` applies them to in-process
agents.  Because nothing here awaits, sleeps or reads a clock, the same
object runs under a simulated event loop with a seeded fault schedule
(``tests/live/test_control_sim.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from ..agent.governor import ImpactBudget
from ..central.engine import CentralEngine
from ..central.results import ResultSet
from ..events import EventRegistry
from ..events.schema import EventSchema, schema_from_payload
from ..query.errors import QueryNotFoundError, ScrubError, ScrubValidationError
from ..query.parser import parse_query
from ..query.planner import QueryPlan, plan_query
from ..query.targets import HostDescription, rendezvous_sample, target_matches
from ..query.validator import validate_query
from .controller import SamplingController
from .effects import Effect, Evict, Journal, MsgType, Push, Reply
from .fleet import (
    MEMBER_STALE,
    ROLLOUT_ABORTED,
    ROLLOUT_CANARY,
    FleetManager,
    QueryRollout,
    RolloutAbort,
    RolloutPolicy,
    Session,
)
from .journal import (
    JournalState,
    finish_record,
    rates_record,
    rollout_record,
    schema_record,
    submit_record,
)

__all__ = ["ControlPlane", "LiveQuery"]


class _BadRequest(Exception):
    """A message whose fields are missing or of the wrong type."""


@dataclass
class LiveQuery:
    """The control plane's record of one running query."""

    plan: QueryPlan
    text: str
    activates_at: float
    expires_at: float
    planned: tuple[str, ...]
    targeted: tuple[str, ...]
    #: Per targeted host: delivery health — "connected", "disconnected",
    #: "lease-expired", "unreachable" (install push failed), "stale"
    #: (silent past the fleet age-out threshold), or "never-seen"
    #: (journal recovery; host not re-attached yet).  The engine reads
    #: this dict live when it closes a window, so coverage names the
    #: state the host was in at close time.
    delivery: dict[str, str] = field(default_factory=dict)
    #: Incremental-rollout state machine when the SUBMIT carried a
    #: rollout policy; ``None`` installs everywhere at once.  For
    #: rollout queries ``targeted`` tracks the installed-so-far set.
    rollout: Optional[QueryRollout] = None
    #: Closed-loop rate controller when the query carries ``TARGET CI``;
    #: ``None`` runs the submitted rates open-loop.  It retunes the
    #: event rate only — the host set grows through :meth:`_join_query`
    #: (late join, rollout widen) and never shrinks.
    controller: Optional[SamplingController] = None
    #: Hosts whose INSTALL could not be delivered.  The SUBMIT_OK reply
    #: carries this very list, and a reply is performed after the pushes
    #: ahead of it, so submit-time failures are in it when it is sent.
    install_failures: list[str] = field(default_factory=list)


class ControlPlane:
    """Scrub's query server, as a state machine that returns its I/O."""

    def __init__(
        self,
        registry: EventRegistry,
        engine: CentralEngine,
        *,
        lease_seconds: float = math.inf,
        stale_after: Optional[float] = None,
        drain_margin: float = 0.0,
        impact_budget: Optional[ImpactBudget] = None,
        say: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.registry = registry
        self.engine = engine
        #: Membership + stale age-out on one clock (the age-out threshold
        #: derives from the lease).  No lease suits sessions that cannot
        #: go silent.
        self.fleet = FleetManager(lease_seconds, stale_after=stale_after)
        #: How long past a query's span end :meth:`tick` waits before
        #: reaping it — lets in-flight host flushes land at ScrubCentral.
        #: Agents stop matching at the span end regardless.
        self.drain_margin = drain_margin
        #: The governor budget TARGET CI controllers clamp against (the
        #: agents enforce their own copies locally; this clamp backs off
        #: *before* theirs trips).  ``None`` disables the clamp, not the
        #: accuracy loop.
        self.impact_budget = impact_budget
        #: The operator's log.  With nobody to tell, a failing tick stage
        #: raises instead of being reported and skipped.
        self._say = say
        self._sequence = 0
        self.running: dict[str, LiveQuery] = {}
        #: Results survive query completion so callers can collect after
        #: the tick reaped an expired span.
        self.results: dict[str, ResultSet] = {}
        #: INSTALL pushes a shell reported undeliverable; STATS.
        self.push_failures = 0
        #: Messages refused as ``bad-request`` (plus heartbeats whose cost
        #: payload was ignored); STATS.
        self.control_rejected = 0

    def say(self, message: str) -> None:
        if self._say is not None:
            self._say(message)

    # -- agent sessions ------------------------------------------------------------

    def hello(self, session: Session, message: Any, now: float) -> list[Effect]:
        """An ``AGENT_HELLO`` arrived on *session*.  Accepted: the session
        is attached (evicting an older epoch of the same host) and gets
        ``HELLO_OK``, its installs and a ``SYNC``.  Refused: one ``ERROR``
        reply, and nothing is registered — no member, schema or record."""
        try:
            description, epoch, schemas = _parse_hello(message)
        except _BadRequest as exc:
            return [self._bad_request(exc)]
        name = description.name
        existing = self.fleet.conn(name)
        if existing is not None and epoch <= existing.epoch:
            # A hello carrying an equal or older epoch is a zombie of a
            # session already superseded — refuse, don't evict.
            reason = f"host {name!r} already registered with an equal or newer session epoch"
            return [_error("duplicate-host", reason)]
        trial = self.registry.copy()
        try:
            for schema in schemas:
                trial.register(schema)
        except ValueError as exc:
            return [_error("schema-conflict", str(exc))]

        effects: list[Effect] = []
        if existing is not None:
            # A newer session of the same host (crash + restart, or a
            # reconnect racing lease expiry): the newer epoch wins and
            # the stale registration is evicted, not the newcomer.
            reason = f"host {name!r} re-registered with newer epoch {epoch}"
            effects += self._evict(existing, "superseded", reason, now)
        for schema in schemas:
            if schema.name not in self.registry:
                self.registry.register(schema)
                effects.append(Journal(schema_record(schema)))
        session.description = description
        session.epoch = epoch
        session.last_seen = now
        session.query_costs = {}
        # A rejoin (even from "stale") flips the member back to live with
        # its new session epoch; a first registration creates the member.
        self.fleet.attach(description, session, epoch, now)
        effects.append(Push(session, MsgType.HELLO_OK, {"epoch": epoch}))
        self.say(f"agent {name} registered (epoch {epoch}, {len(self.fleet.live())} live hosts)")
        self._sync_queries(session, now, effects)
        return effects

    def agent_message(
        self, session: Session, msg_type: MsgType, message: Any, now: float
    ) -> list[Effect]:
        """Any frame on an attached session renews its lease; a ``PING``
        is answered, a ``HEARTBEAT`` also carries the host's per-query
        armed-cost counters."""
        session.last_seen = now
        if msg_type == MsgType.PING:
            return [Push(session, MsgType.PONG, message)]
        if msg_type == MsgType.HEARTBEAT:
            costs = message.get("query_costs") if isinstance(message, dict) else None
            if isinstance(costs, dict) and all(
                isinstance(query_id, str) and isinstance(per_query, dict)
                for query_id, per_query in costs.items()
            ):
                session.query_costs = costs
            else:
                self.control_rejected += 1
        return []

    def disconnected(self, session: Session, now: float) -> list[Effect]:
        """The session's channel closed.  Only its own registration is
        torn down: a takeover has already replaced it, and the new
        session must not be unregistered by the old connection's exit."""
        name = session.host
        if name is not None and self.fleet.conn(name) is session:
            self.fleet.detach(name, now)
            self._mark_delivery(name, "disconnected")
            self.say(f"agent {name} disconnected")
        return []

    def push_failed(self, push: Push, now: float) -> list[Effect]:
        """A shell could not deliver *push*.  A lost ``INSTALL`` is counted,
        the host flagged unreachable for that query (so its windows read
        as degraded, not merely quiet) and the dead session evicted so a
        restarted agent can re-register.  Anything else needs no answer:
        the agent is gone and its query objects expire on their own."""
        if push.msg_type != MsgType.INSTALL:
            return []
        self.push_failures += 1
        session = push.session
        query_id = push.message.get("query_id")
        reason = f"install of {query_id} could not be delivered"
        effects = self._evict(session, "install-push-failed", reason, now)
        live = self.running.get(query_id)
        if live is not None and session.host in live.delivery:
            live.delivery[session.host] = "unreachable"
            if session.host not in live.install_failures:
                live.install_failures.append(session.host)
        return effects

    def _evict(
        self, session: Session, error: str, message: str, now: float,
        delivery: str = "disconnected",
    ) -> list[Effect]:
        """Drop a registration — detached, with *delivery* as the reason
        its queries' coverage names; the shell tells the old session why
        (a structured ERROR, never a silent close) and closes its channel."""
        if self.fleet.conn(session.host) is session:
            self.fleet.detach(session.host, now)
            self._mark_delivery(session.host, delivery)
        return [Evict(session, error, message)]

    def _mark_delivery(self, name: str, state: str) -> None:
        """Record a host's delivery-health transition on every open query
        that targets it (the engine reads these when windows close)."""
        for live in self.running.values():
            if name in live.targeted:
                live.delivery[name] = state

    def _sync_queries(self, session: Session, now: float, effects: list[Effect]) -> None:
        """After HELLO_OK: push every open query span targeting this host,
        then a SYNC of the full live set so the agent reconciles — installs
        it lacks, uninstalls anything stale it still runs.  This is what
        makes a span survive an agent restart.

        A host the query does *not* yet target is a potential late
        joiner: matching queries pull it in at the current rollout stage
        (:meth:`_admit_late_joiner`), so registration order stops
        mattering — including after a journal recovery where the
        original hosts never came back."""
        name = session.host
        active: list[str] = []
        for query_id, live in self.running.items():
            if now >= live.expires_at:
                continue
            if live.rollout is not None and live.rollout.state == ROLLOUT_ABORTED:
                continue  # uninstalled everywhere; the SYNC below says so again
            if name not in live.targeted:
                self._admit_late_joiner(query_id, live, session, effects)
                # Not admitted — or admitted to an active rollout:
                # installed when widening reaches it, nothing to push yet.
                if name not in live.targeted:
                    continue
            effects.append(Push(session, MsgType.INSTALL, self._install_message(query_id, live)))
            live.delivery[name] = "connected"
            active.append(query_id)
        effects.append(Push(session, MsgType.SYNC, {"query_ids": active}))

    def _admit_late_joiner(
        self, query_id: str, live: LiveQuery, session: Session, effects: list[Effect]
    ) -> None:
        """Should a newly registered host join this running query?

        * Rollout queries admit every matching host into the rank order:
          an active rollout installs it when widening reaches its slot, a
          completed one immediately; an aborted one never.
        * Plain queries re-run the rendezvous pick over the *live*
          matching membership — rendezvous ranks are per-host-stable, so
          a newcomer joins exactly when it would have been chosen at
          submit time, and nobody else's placement moves.
        """
        name = session.host
        if not target_matches(live.plan.target, session.description):
            return
        rollout = live.rollout
        if rollout is not None:
            if not rollout.admit(name):
                return
            effects.append(_rollout_journal(query_id, rollout))
            if name not in rollout.installed:
                return  # queued for a future widen stage
        else:
            rate = live.plan.host_sampling_rate
            if rate < 1.0:
                matching = [
                    m.name
                    for m in self.fleet.live()
                    if target_matches(live.plan.target, m.description)
                ]
                if name not in rendezvous_sample(matching, rate, _seed_from(query_id)):
                    return
        self._join_query(query_id, live, name)

    def _join_query(self, query_id: str, live: LiveQuery, name: str) -> None:
        """Commit one host into a running query's targeted set (central
        coverage included); the caller delivers the INSTALL.  The one
        mechanism by which a query's host set grows."""
        live.targeted = live.targeted + (name,)
        live.delivery.setdefault(name, "connected")
        planned_delta = 0
        if name not in live.planned:
            live.planned = live.planned + (name,)
            planned_delta = 1
        self.engine.extend_targets(query_id, (name,), planned_delta)
        controller = live.controller
        if controller is not None:
            # Keep the controller's population model honest: the error
            # inversion needs the real (N, n), not the submit-time pair.
            controller.total_hosts += planned_delta
            controller.host_count = min(controller.host_count + 1, controller.total_hosts)

    def _install_message(self, query_id: str, live: LiveQuery) -> dict[str, Any]:
        """The INSTALL payload for one query.  Every push path — submit,
        reconnect sync, late join, rollout widen, retune fan-out — goes
        through here so the current closed-loop rates always ride along:
        agents compare versions, so a replayed install converges a
        laggard and can never roll an up-to-date host back."""
        message: dict[str, Any] = {
            "query_id": query_id,
            "query": live.text,
            "activates_at": live.activates_at,
            "expires_at": live.expires_at,
        }
        controller = live.controller
        if controller is not None and controller.version > 0:
            message["rates"] = {
                "version": controller.version,
                "host_rate": controller.host_count / controller.total_hosts,
                "event_rate": controller.event_rate,
            }
        return message

    def _open(
        self, query_id: str, plan: QueryPlan, text: str, activates_at: float, expires_at: float,
        planned: tuple[str, ...], targeted: tuple[str, ...], rollout: Optional[QueryRollout],
        delivery_state: str,
    ) -> LiveQuery:
        """Register a query at the central engine and in ``running`` —
        the common end of SUBMIT and journal recovery."""
        delivery = {name: delivery_state for name in targeted}
        population = max(len(planned), len(targeted), 1)
        self.engine.register(
            plan.central_object,
            planned_hosts=population,
            targeted_hosts=len(targeted),
            targeted_names=targeted,
            delivery_state=lambda: delivery,
        )
        # A closed-loop rate controller when the plan carries a TARGET CI
        # clause; without one the submitted rates run open-loop.
        controller = None
        central = plan.central_object
        if central.target_ci is not None:
            controller = SamplingController(
                query_id,
                central.target_ci,
                total_hosts=population,
                targeted_hosts=max(len(targeted), 1),
                window_seconds=central.window_seconds,
                event_rate=plan.query.sampling.event_rate,
                budget=self.impact_budget,
            )
        live = self.running[query_id] = LiveQuery(
            plan, text, activates_at, expires_at, planned, targeted, delivery, rollout, controller
        )
        return live

    def cost_watch(self) -> list[Session]:
        """The attached sessions whose ``query_costs`` the next
        :meth:`tick` will read (targets of TARGET CI queries, canaries
        of cost-gated rollouts) — so a shell whose agents do not
        heartbeat refreshes only these."""
        names: set[str] = set()
        for live in self.running.values():
            ro = live.rollout
            cost_gated = ro is not None and ro.active and ro.policy.max_ewma_ns is not None
            if live.controller is not None or cost_gated:
                names.update(live.targeted)
        return [session for name in names if (session := self.fleet.conn(name)) is not None]

    # -- query requests ------------------------------------------------------------

    def request(self, msg_type: MsgType, message: Any, now: float) -> list[Effect]:
        """One ``SUBMIT`` / ``POLL`` / ``FINISH`` / ``STATS`` message in,
        its effects out — the last one the reply.  Never raises: a
        malformed message answers ``bad-request``, a query error its
        class name, anything unexpected ``internal``."""
        try:
            if msg_type == MsgType.SUBMIT:
                text = _field(message, "query", str)
                rollout = _field(message, "rollout", Mapping, None)
                return self.submit(text, now, rollout)
            if msg_type == MsgType.POLL:
                return [Reply(MsgType.RESULTS, self.poll(_field(message, "query_id", str)))]
            if msg_type == MsgType.FINISH:
                return self.finish(_field(message, "query_id", str), now)
            if msg_type == MsgType.STATS:
                return [Reply(MsgType.STATS_OK, self.stats(now))]
            raise _BadRequest(f"unexpected {msg_type.name} on the control channel")
        except _BadRequest as exc:
            return [self._bad_request(exc)]
        except ScrubError as exc:
            return [_error(type(exc).__name__, str(exc))]
        except Exception as exc:
            # An unexpected failure must reach the submitter as a
            # structured ERROR, not a silently closed socket.
            self.say(f"control: request failed: {exc!r}")
            return [_error("internal", f"{type(exc).__name__}: {exc}")]

    def _bad_request(self, exc: Exception) -> Reply:
        self.control_rejected += 1
        return _error("bad-request", str(exc))

    def submit(
        self, text: str, now: float, rollout: Optional[Mapping[str, Any]] = None
    ) -> list[Effect]:
        """Parse, validate, plan and place a query.  Effects: the journal
        records, then one INSTALL per host installed now — all of them,
        or the canaries when *rollout* carries a policy — then
        ``SUBMIT_OK``.  Raises :class:`ScrubError` and changes nothing
        when the query is bad or its target matches no live host."""
        try:
            policy = RolloutPolicy.from_payload(rollout)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScrubValidationError(f"bad rollout policy: {exc}") from exc
        validated = validate_query(parse_query(text), self.registry)
        self._sequence += 1
        query_id = f"q{self._sequence:05d}"
        plan = plan_query(validated, query_id)
        matching = [
            member.name
            for member in self.fleet.live()
            if target_matches(plan.target, member.description)
        ]
        if not matching:
            raise ScrubValidationError(
                "query target matches no host: no registered host satisfies the "
                "@[...] expression; check it and that agents are connected"
            )
        # Rendezvous (highest-random-weight) sampling: each host's rank
        # depends only on (query seed, host name), so fleet churn moves
        # at most the churned host — and the same ranking doubles as the
        # rollout's widening order.
        order = tuple(rendezvous_sample(matching, plan.host_sampling_rate, _seed_from(query_id)))
        activates_at = plan.start if plan.start is not None else now
        expires_at = activates_at + plan.duration
        planned = tuple(matching)
        rollout_machine: Optional[QueryRollout] = None
        targeted = order
        if policy is not None:
            rollout_machine = QueryRollout(query_id, policy, order=order)
            targeted = order[: rollout_machine.quota()]
            rollout_machine.note_installed(targeted)
        live = self._open(
            query_id, plan, text, activates_at, expires_at, planned, targeted,
            rollout_machine, "connected",
        )

        policy_dict = policy.as_dict() if policy is not None else None
        record = submit_record(
            query_id, text, activates_at, expires_at, planned, order, rollout=policy_dict
        )
        effects: list[Effect] = [Journal(record)]
        if rollout_machine is not None:
            effects.append(_rollout_journal(query_id, rollout_machine))
        install = self._install_message(query_id, live)
        effects += [Push(self.fleet.conn(name), MsgType.INSTALL, install) for name in targeted]
        self.say(
            f"query {query_id} installing on {len(targeted)}/{len(order)} host(s)"
            + (f" (canary; policy {policy_dict})" if policy is not None else "")
        )
        placed = {
            "query_id": query_id,
            "columns": list(plan.central_object.column_names),
            "planned_hosts": list(planned),
            "targeted_hosts": list(targeted),
            "install_failures": live.install_failures,
            "activates_at": activates_at,
            "expires_at": expires_at,
            "rollout": rollout_machine.as_dict() if rollout_machine is not None else None,
            # Central execution mode, so the submitter can interpret any
            # later shard_gaps coverage entries: a pooled engine names its
            # worker count and how often the supervisor has respawned one.
            "central": {
                "workers": getattr(self.engine, "workers", 0),
                "worker_respawns": getattr(self.engine, "worker_respawns", 0),
            },
        }
        return [*effects, Reply(MsgType.SUBMIT_OK, placed)]

    def poll(self, query_id: str) -> ResultSet:
        """Results emitted so far (windows already closed); for a query
        whose span already ended, the complete result set."""
        done = self.results.get(query_id)
        if done is not None:
            return done
        live = self.running.get(query_id)
        if live is None:
            raise QueryNotFoundError(query_id)
        return _annotate(self.engine.results_so_far(query_id), live)

    def finish(self, query_id: str, now: float, drain: bool = True) -> list[Effect]:
        """End a query now.  By the time this returns the query is
        finished — out of ``running``, its central object unregistered,
        its result set stored — so no failed push can strand it; the
        effects (journal the finish, uninstall everywhere, ``RESULTS``)
        only tell the world.  ``drain=False`` discards windows still
        open.  Idempotent: a finished query replies its stored results."""
        done = self.results.get(query_id)
        if done is not None:
            return [Reply(MsgType.RESULTS, done)]
        live = self.running.get(query_id)
        if live is None:
            raise QueryNotFoundError(query_id)
        # The engine first: if closing the windows raises, nothing here
        # has changed and the query is still, wholly, running.
        results = _annotate(self.engine.finish(query_id, drain=drain), live)
        del self.running[query_id]
        self.results[query_id] = results
        degraded = len(results.degraded_windows)
        self.say(
            f"query {query_id} finished: {len(results.windows)} window(s)"
            + (f", {degraded} degraded" if degraded else "")
        )
        return [
            Journal(finish_record(query_id)),
            *self._uninstalls(query_id, live.targeted),
            Reply(MsgType.RESULTS, results),
        ]

    def _uninstalls(self, query_id: str, names: Any) -> list[Effect]:
        return [
            Push(session, MsgType.UNINSTALL, {"query_id": query_id})
            for name in names
            if (session := self.fleet.conn(name)) is not None
        ]

    def stats(self, now: float) -> dict[str, Any]:
        stats = self.engine.stats
        pool_health = getattr(self.engine, "pool_health", None)
        return {
            # "hosts" stays live-connections-only (what can receive a
            # push right now); "fleet" below is the full membership view
            # including disconnected and stale hosts.
            "hosts": [
                {
                    "host": member.description.name,
                    "services": sorted(member.description.services),
                    "datacenter": member.description.datacenter,
                    "epoch": member.epoch,
                    "lease_age": now - member.last_seen,
                    "query_costs": member.query_costs(),
                }
                for member in self.fleet.live()
            ],
            "fleet": self.fleet.stats(now),
            "running": sorted(self.running),
            "finished": sorted(self.results),
            "queries": {
                query_id: {
                    "targeted": list(live.targeted),
                    "delivery": dict(live.delivery),
                    "activates_at": live.activates_at,
                    "expires_at": live.expires_at,
                }
                for query_id, live in self.running.items()
            },
            # Rollout state machines for running queries; a finished
            # query's final rollout state rides its stored ResultSet.
            "rollouts": {
                query_id: live.rollout.as_dict()
                for query_id, live in self.running.items()
                if live.rollout is not None
            },
            # Closed-loop sampling controllers for running TARGET CI
            # queries (the scrub-shell ``\\rates`` view reads this); a
            # finished query's final state rides its stored ResultSet.
            "controllers": {
                query_id: live.controller.status()
                for query_id, live in self.running.items()
                if live.controller is not None
            },
            "workers": getattr(self.engine, "workers", 0),
            "lease_seconds": self.fleet.lease_seconds,
            "stale_after": self.fleet.stale_after,
            "push_failures": self.push_failures,
            "control_rejected": self.control_rejected,
            "engine": {name: getattr(stats, name) for name in _ENGINE_STATS},
            # Host-governor quarantines per running query (query -> host ->
            # structured reason) and, when pooled, supervisor health.
            "quarantines": self.engine.quarantines(),
            "pool": pool_health() if pool_health is not None else None,
        }

    # -- the tick ------------------------------------------------------------------

    def tick(self, now: float) -> list[Effect]:
        """Periodic maintenance, in this order: expire silent leases and
        age out stale members; drive every rollout one health-gated
        step; close due windows; run the rate controllers over them;
        reap queries whose span (plus drain margin) has elapsed."""
        effects: list[Effect] = []
        for stage in (self._expire_leases, self._rollout_tick, self._control_tick):
            self._isolated(stage.__name__.lstrip("_"), stage, now, effects)
        for query_id, live in list(self.running.items()):
            if now >= live.expires_at + self.drain_margin:
                self._isolated(f"reap of {query_id}", self._reap, query_id, now, effects)
        return effects

    def _isolated(self, what: str, step: Callable[..., None], *args: Any) -> None:
        """One bad query or stage must not stop the tick — when there is
        an operator to tell.  With no ``say``, fail loudly instead."""
        try:
            step(*args)
        except Exception as exc:
            if self._say is None:
                raise
            self.say(f"tick: {what} failed: {exc!r}")

    def _expire_leases(self, now: float, effects: list[Effect]) -> None:
        """Unregister agents whose lease lapsed (no frame within the
        window).  The dead session is told why — a structured ERROR, not
        a silent close — so a *slow* (not dead) agent knows to redial.
        Past the (lease-derived) age-out threshold the silent host then
        leaves membership entirely: coverage names it ``stale`` and
        pending rollouts stop waiting for it."""
        for member in self.fleet.lease_lapsed(now):
            silent = now - member.last_seen
            self.say(
                f"agent {member.name}: lease expired "
                f"({silent:.1f}s > {self.fleet.lease_seconds:g}s silent)"
            )
            reason = f"no heartbeat for {silent:.1f}s; re-register to resume"
            effects += self._evict(member.conn, "lease-expired", reason, now, "lease-expired")
        for member in self.fleet.age_out(now):
            self._mark_delivery(member.name, "stale")
            for query_id, live in self.running.items():
                rollout = live.rollout
                if rollout is not None and rollout.active and rollout.retire(member.name):
                    effects.append(_rollout_journal(query_id, rollout))
            self.say(
                f"agent {member.name}: aged out of the fleet "
                f"({self.fleet.stale_after:g}s silent)"
            )

    def _rollout_tick(self, now: float, effects: list[Effect]) -> None:
        """Drive every active rollout one health-gated step: abort on a
        canary quarantine or cost regression, otherwise bake — and widen
        once the stage has been healthy for ``bake_intervals`` ticks."""
        active = [
            (query_id, live)
            for query_id, live in self.running.items()
            if live.rollout is not None and live.rollout.active and now < live.expires_at
        ]
        if not active:
            return
        quarantines = self.engine.quarantines()
        for query_id, live in active:
            rollout = live.rollout
            assert rollout is not None
            costs = self.fleet.ewma_by_host(query_id)
            abort = rollout.check_health(quarantines.get(query_id, {}), costs)
            if abort is not None:
                self._abort_rollout(query_id, rollout, abort, effects)
                continue
            # A detached (but not aged-out) canary is not evidence of
            # health: freeze the bake until it reconnects or goes stale.
            waiting = [
                name
                for name in rollout.installed
                if (member := self.fleet.member(name)) is not None
                and member.state != MEMBER_STALE
            ]
            if not waiting or any(self.fleet.conn(name) is None for name in waiting):
                continue
            if rollout.tick_healthy():
                self._widen_rollout(query_id, live, effects)

    def _abort_rollout(
        self, query_id: str, rollout: QueryRollout, abort: RolloutAbort, effects: list[Effect]
    ) -> None:
        """Kill a rollout: journal the abort, uninstall everywhere, and
        keep the structured reason for POLL/STATS.  The query object
        stays registered so the troubleshooter can still collect what
        the canaries saw."""
        rollout.record_abort(abort)
        effects.append(_rollout_journal(query_id, rollout))
        effects += self._uninstalls(query_id, rollout.installed)
        self.say(
            f"query {query_id} rollout aborted at stage {abort.stage}: "
            f"{abort.reason} on {abort.host} ({abort.detail})"
        )

    def _widen_rollout(self, query_id: str, live: LiveQuery, effects: list[Effect]) -> None:
        """The stage baked healthy: advance and install the next tranche
        of the rendezvous order."""
        rollout = live.rollout
        assert rollout is not None
        tranche = rollout.widen_tranche()
        rollout.note_installed(tranche)
        for name in tranche:
            self._join_query(query_id, live, name)
        effects.append(_rollout_journal(query_id, rollout))
        # The install message includes the current rate version, so a
        # tranche installed mid-retune starts at the steady-state rates —
        # canaries and latecomers never sample divergently.
        install = self._install_message(query_id, live)
        for name in tranche:
            session = self.fleet.conn(name)
            # Currently detached: the INSTALL replays from _sync_queries
            # when it re-registers (it is in live.targeted now), so
            # nothing is skipped.
            live.delivery[name] = "connected" if session is not None else "disconnected"
            if session is not None:
                effects.append(Push(session, MsgType.INSTALL, install))
        self.say(
            f"query {query_id} rollout {rollout.state}: stage {rollout.stage}, "
            f"{len(rollout.installed)}/{len(rollout.order)} host(s) installed"
        )

    def _control_tick(self, now: float, effects: list[Effect]) -> None:
        """Close due windows, then drive every TARGET CI query's rate
        controller one step: feed it the windows just closed and the
        cost counters from agent heartbeats, and fan out any retune it
        issues — journal first, so a plane killed between journal and
        fan-out recovers with this exact version and replays it over the
        INSTALL path, and the agents' version compare makes the replay
        idempotent (laggards converge, up-to-date hosts ignore it)."""
        emitted = self.engine.advance(now)
        for window in emitted:
            live = self.running.get(window.query_id)
            if live is not None and live.controller is not None:
                live.controller.observe_window(window, now)
        for query_id, live in self.running.items():
            controller = live.controller
            if controller is None or now >= live.expires_at:
                continue
            costs: dict[str, Any] = {}
            sessions = []
            for name in live.targeted:
                session = self.fleet.conn(name)
                if session is None:
                    # A detached host must not freeze the loop on its
                    # last heartbeat forever; it re-reports on rejoin.
                    controller.forget_host(name)
                    continue
                sessions.append(session)
                per_query = session.query_costs.get(query_id)
                if isinstance(per_query, dict):
                    costs[name] = per_query
            controller.observe_costs(costs, now)
            update = controller.tick(now)
            if update is None:
                continue
            effects.append(
                Journal(
                    rates_record(
                        query_id, update.version, update.host_rate,
                        update.event_rate, update.reason,
                    )
                )
            )
            # Detached hosts get it replayed by _sync_queries on rejoin.
            install = self._install_message(query_id, live)
            effects += [Push(session, MsgType.INSTALL, install) for session in sessions]
            self.say(
                f"query {query_id} retuned to v{update.version}: "
                f"event_rate={update.event_rate:.4g} ({update.reason})"
            )

    def _reap(self, query_id: str, now: float, effects: list[Effect]) -> None:
        effects += self.finish(query_id, now)[:-1]  # nobody to reply to

    # -- journal recovery ----------------------------------------------------------

    def recover(self, state: JournalState) -> None:
        """Rebuild from a replayed journal: restore schemas and
        re-register every open span so agents can re-attach and
        POLL/FINISH keep working."""
        for schema in state.schemas:
            try:
                self.registry.register(schema)
            except ValueError as exc:
                self.say(f"journal: conflicting schema {schema.name!r}: {exc}")
        self._sequence = max(self._sequence, state.max_sequence)
        resumed = []
        for query_id, record in state.open_queries.items():
            try:
                self._resume(
                    query_id, record, state.rollouts.get(query_id), state.rates.get(query_id)
                )
            except ScrubError as exc:
                self.say(f"journal: cannot resume {query_id}: {exc}")
                continue
            resumed.append(query_id)
        if resumed or state.finished:
            self.say(
                f"scrubd resumed {len(resumed)} open span(s) from journal "
                f"({sorted(resumed)}; {len(state.finished)} already finished)"
            )
        if state.torn_records:
            self.say("journal: dropped a torn trailing record (crash mid-append)")

    def _resume(
        self,
        query_id: str,
        record: dict[str, Any],
        rollout_record: Optional[dict[str, Any]],
        rates_record: Optional[dict[str, Any]],
    ) -> None:
        """Re-register one journalled query.  Planning is deterministic in
        (text, query id), so the central object is identical to the one
        the crashed plane ran; windows open at crash time are lost.  A
        journalled rollout resumes in its last recorded stage with the
        same installed set — the bake timer restarts, the placement does
        not.  A journalled rate retune resumes at exactly the last
        journalled version: the recovered controller starts there and
        reconnecting agents receive it in their INSTALL replay, so a
        kill mid-retune never forks the fleet's sampling."""
        plan = plan_query(validate_query(parse_query(record["query"]), self.registry), query_id)
        targeted = tuple(record["targeted"])
        planned = tuple(record["planned"])
        rollout: Optional[QueryRollout] = None
        policy = RolloutPolicy.from_payload(record.get("rollout"))
        if policy is not None:
            ro_rec = rollout_record or {}
            order = tuple(ro_rec.get("order", targeted))
            rollout = QueryRollout(
                query_id,
                policy,
                order=order,
                installed=tuple(ro_rec.get("installed", order[: policy.quota(0)])),
                stage=int(ro_rec.get("stage", 0)),
                state=ro_rec.get("state", ROLLOUT_CANARY),
                abort=RolloutAbort.from_dict(ro_rec.get("abort")),
            )
            targeted = tuple(rollout.installed)
        # Nobody has re-attached yet; reconnects flip hosts to "connected".
        live = self._open(
            query_id, plan, record["query"], record["activates_at"], record["expires_at"],
            planned, targeted, rollout, "never-seen",
        )
        if live.controller is not None and rates_record is not None:
            try:
                live.controller.version = int(rates_record["version"])
                live.controller.event_rate = float(rates_record["event_rate"])
            except (KeyError, TypeError, ValueError) as exc:
                self.say(f"journal: bad rates record for {query_id}: {exc!r}")


# -- helpers -----------------------------------------------------------------------

_MISSING = object()

#: The engine counters STATS republishes under ``engine``.
_ENGINE_STATS = (
    "batches_received", "events_received", "events_rowed", "events_late", "seen_counts_late",
    "bytes_received", "windows_emitted", "rows_emitted", "events_shed", "quarantines_reported",
)


def _field(message: Any, key: str, kind: type, default: Any = _MISSING) -> Any:
    """``message[key]``, which must be a *kind* — or *default* if absent."""
    if not isinstance(message, dict):
        raise _BadRequest(f"message must be a map, got {type(message).__name__}")
    value = message.get(key, default)
    if value is default and default is not _MISSING:
        return value
    if value is _MISSING:
        raise _BadRequest(f"missing field {key!r}")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise _BadRequest(
            f"field {key!r} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parse_hello(message: Any) -> tuple[HostDescription, int, list[EventSchema]]:
    name = _field(message, "host", str)
    if not name:
        raise _BadRequest("field 'host' must be a non-empty string")
    epoch = _field(message, "epoch", int, 0)
    services = _field(message, "services", list, [])
    if not all(isinstance(service, str) for service in services):
        raise _BadRequest("field 'services' must be a list of strings")
    datacenter = _field(message, "datacenter", str, "dc1")
    try:
        schemas = [schema_from_payload(p) for p in _field(message, "schemas", list, [])]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise _BadRequest(f"bad schema payload: {exc}") from exc
    return HostDescription(name, services, datacenter), epoch, schemas


def _error(error: str, message: str) -> Reply:
    return Reply(MsgType.ERROR, {"error": error, "message": message})


def _rollout_journal(query_id: str, rollout: QueryRollout) -> Journal:
    return Journal(
        rollout_record(
            query_id,
            rollout.state,
            rollout.stage,
            rollout.order,
            rollout.installed,
            abort=rollout.abort.as_dict() if rollout.abort is not None else None,
        )
    )


def _annotate(results: ResultSet, live: LiveQuery) -> ResultSet:
    if live.rollout is not None:
        results.rollout = live.rollout.as_dict()
    if live.controller is not None:
        results.sampling = live.controller.status()
    return results


def _seed_from(query_id: str) -> int:
    seed = 0
    for ch in query_id:
        seed = seed * 131 + ord(ch)
    return seed & 0xFFFFFFFF
