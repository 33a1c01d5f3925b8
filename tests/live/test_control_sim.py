"""The control-plane simulation sweep.

Per seed: the real :class:`ControlPlane`, 4-6 real agents and the real
engine on a virtual clock (``tests/live/sim.py``); one plain query, one
canary-rollout query and one ``TARGET CI`` query; ~20 simulated seconds
of traffic; and a seeded fault schedule over the effect stream — frames
dropped, duplicated, delayed and reordered, hosts partitioned (noticed
or not) and restarted, a canary quarantined, a host joining late, and
the plane itself killed at an arbitrary effect boundary and rebuilt from
its journal.  After **every step** the invariants below are asserted; a
violation names its invariant, and the failing seed is the test id —
``pytest 'tests/live/test_control_sim.py::test_sweep[137]'`` replays it
in milliseconds.

No process, thread or socket is created by this module.
"""

from __future__ import annotations

import collections
import random

import pytest

import repro.core.control.plane as plane_module
from repro.core.agent.transport import EventBatch
from repro.core.central.engine import CentralEngine
from repro.core.control import ControlPlane, Evict, Journal, MsgType
from repro.core.control.fleet import MEMBER_STALE
from repro.core.events import EventRegistry

from .sim import ControlSim, Faults, PlaneCrashed, replay

SEEDS = 240
STEP = 0.25
STEPS = 80  # 20 simulated seconds

PLAIN = (
    "select pv.url, COUNT(*) from pv @[Service in Frontends] "
    "window 2s group by pv.url duration 14s;"
)
ROLLOUT = PLAIN  # same question, submitted with a canary policy
TARGET_CI = (
    "select SUM(pv.latency_ms) from pv @[Service in Frontends] "
    "window 2s duration 14s target ci 25%;"
)


class Violation(AssertionError):
    def __init__(self, invariant: str, detail: str) -> None:
        super().__init__(f"[{invariant}] {detail}")
        self.invariant = invariant


def require(condition: bool, invariant: str, detail: str) -> None:
    if not condition:
        raise Violation(invariant, detail)


class Scenario:
    """One seed's world, its fault schedule, and the invariant checker."""

    def __init__(self, seed: int) -> None:
        rng = self.rng = random.Random(seed)
        self.sim = sim = ControlSim(
            seed,
            lease_seconds=1.5,
            grace_seconds=1.0,
            drain_margin=0.5,
            faults=Faults(
                drop=rng.choice([0.0, 0.0, 0.03, 0.08]),
                dup=rng.choice([0.0, 0.05, 0.15]),
                delay=(0.0, rng.choice([0.0, 0.1, 0.4])),
            ),
        )
        sim.window_seconds = collections.defaultdict(lambda: 2.0)
        self.t0 = sim.now
        names = [f"web-{i}" for i in range(rng.randint(4, 6))]
        for name in names:
            sim.add_host(name)
        self.late = sim.add_host("web-late", connect=False)
        self.late_at = rng.randrange(12, 48)
        self.bake = rng.randint(3, 10)
        self.queries: dict[str, str] = {}  # kind -> query id
        self.faults = self._schedule(names)
        self.tally = collections.Counter()
        # checker state
        self._traced = 0
        self._journal_len = 0
        self._rates: dict[str, int] = {}
        self._installed: dict[str, set] = {}
        self._aborted: dict[str, tuple] = {}
        self._windows: dict[str, int] = {}
        self._versions: dict[tuple, int] = {}

    def _schedule(self, names: list[str]) -> dict[int, list[tuple]]:
        rng = self.rng
        schedule: dict[int, list[tuple]] = collections.defaultdict(list)
        for _ in range(rng.randint(2, 5)):
            kind = rng.choice(["partition", "partition", "restart", "crash", "quarantine"])
            at = rng.randrange(4, 24 if kind == "quarantine" else 60)
            if kind == "partition":
                host = rng.choice(names)
                schedule[at].append(("partition", host, rng.random() < 0.5))
                schedule[at + rng.randrange(2, 16)].append(("heal", host))
            elif kind == "restart":
                schedule[at].append(("restart", rng.choice(names)))
            elif kind == "crash":
                schedule[at].append(("crash", rng.randrange(0, 10)))
            else:
                schedule[at].append(("quarantine",))
        return schedule

    # -- running -------------------------------------------------------------------

    def run(self) -> None:
        for step in range(STEPS):
            self.sim.advance(STEP)
            self.check()
            for fault in self.faults.get(step, ()):
                self.act(self._inject, *fault)
            if step == 2:
                self.act(self._submit_all)
            if step == self.late_at:
                self.act(self.late.connect)
            self.act(self._traffic)
            if step % 2 == 0:
                self.act(self._flush_and_heartbeat)
            self.act(self._redial)
            self.act(self._tick)

    def act(self, fn, *args) -> None:
        """One step: do it (recovering if the plane dies in it), then
        assert every invariant."""
        try:
            fn(*args)
        except PlaneCrashed:
            self.sim.recover()
            self.tally["crashes"] += 1
        self.check()

    def _submit_all(self) -> None:
        for kind, text, rollout in (
            ("plain", PLAIN, None),
            ("rollout", ROLLOUT,
             {"canary_hosts": 1, "widen_factor": 2.0, "bake_intervals": self.bake}),
            ("target", TARGET_CI, None),
        ):
            before = len(self.sim.journal)
            try:
                self.queries[kind] = self.sim.submit(text, rollout)["query_id"]
            except PlaneCrashed:
                # Admitted iff its submit record reached the journal.
                for record in self.sim.journal[before:]:
                    if record.get("op") == "submit":
                        self.queries[kind] = record["query_id"]
                raise

    def _traffic(self) -> None:
        rng = self.rng
        for host in self.sim.hosts.values():
            for _ in range(2):
                host.log(latency_ms=8.0 if rng.random() < 0.05 else 1.0 + rng.random())

    def _flush_and_heartbeat(self) -> None:
        for host in self.sim.hosts.values():
            host.agent.flush()
            host.heartbeat()
        self._check_ledgers()

    def _redial(self) -> None:
        for host in self.sim.hosts.values():
            if host.session is None and host.link_up and (
                host is not self.late or self.sim.now >= self.t0 + self.late_at * STEP
            ):
                if self.rng.random() < 0.5:
                    host.connect()

    def _tick(self) -> None:
        sim = self.sim
        before = {
            query_id: (live.rollout.stage, list(live.rollout.installed))
            for query_id, live in sim.plane.running.items()
            if live.rollout is not None
        }
        versions = {
            query_id: live.controller.version
            for query_id, live in sim.plane.running.items()
            if live.controller is not None
        }
        logged = len(sim.log)
        effects = sim.plane.tick(sim.now)
        for line in sim.log[logged:]:
            require(not line.startswith("tick:"), "tick-never-fails", line)
        # Windows close and rollouts widen inside tick(): judge both
        # against what the plane knew then, before a failed push in the
        # effects teaches it more.
        self._check_coverage()
        for query_id, (stage, installed) in before.items():
            live = sim.plane.running.get(query_id)
            if live is None or live.rollout.stage == stage:
                continue
            self.tally["widens"] += 1
            quarantined = sim.engine.quarantines().get(query_id, {})
            for name in installed:
                member = sim.plane.fleet.member(name)
                if member is None:
                    continue  # never met since the last recovery: no evidence either way
                require(
                    member.state == MEMBER_STALE or member.conn is not None,
                    "widen-needs-health-evidence",
                    f"{query_id} widened to stage {live.rollout.stage} while installed "
                    f"host {name} was detached ({member.state})",
                )
                require(
                    name not in quarantined,
                    "widen-needs-health-evidence",
                    f"{query_id} widened while {name} was quarantined",
                )
        sim.perform(effects)
        for query_id, version in versions.items():
            live = sim.plane.running.get(query_id)
            if live is not None and live.controller.version > version:
                self.tally["retunes"] += 1

    def _inject(self, kind: str, *args) -> None:
        sim = self.sim
        self.tally[kind] += 1
        if kind == "partition":
            sim.partition(sim.hosts[args[0]], noticed=args[1])
        elif kind == "heal":
            sim.heal(sim.hosts[args[0]])
        elif kind == "restart":
            sim.hosts[args[0]].restart()
        elif kind == "crash":
            sim.crash_after(args[0])
        elif kind == "quarantine":
            live = sim.plane.running.get(self.queries.get("rollout"))
            if live is not None and live.rollout.installed:
                sim.ingest(
                    EventBatch(
                        host=live.rollout.installed[0], query_id=self.queries["rollout"],
                        events=[], quarantined="impact-budget-exceeded: injected",
                    )
                )

    # -- invariants ----------------------------------------------------------------

    def check(self) -> None:
        self._check_trace()
        self._check_journal()
        self._check_aborted()
        self._check_agent_versions()

    def _check_ledgers(self) -> None:
        """Per host and window, seen == shipped + dropped + shed: every
        matched event left the host in a batch or in a counted loss."""
        sampled = self.queries.get("target")
        for host in self.sim.hosts.values():
            for query_id, per_window in host.windows.items():
                seen = sum(s for s, _ in per_window.values())
                shipped = sum(sh for _, sh in per_window.values())
                lost = host.lost.get(query_id, 0)
                for window, (s, sh) in per_window.items():
                    require(
                        sh <= s, "host-ledger",
                        f"{host.name}/{query_id} window {window}: shipped {sh} > seen {s}",
                    )
                if query_id == sampled:
                    require(
                        seen >= shipped + lost, "host-ledger",
                        f"{host.name}/{query_id}: seen {seen} < shipped {shipped} + lost {lost}",
                    )
                else:
                    require(
                        seen == shipped + lost, "host-ledger",
                        f"{host.name}/{query_id}: seen {seen} != shipped {shipped} + lost {lost}",
                    )

    def _check_trace(self) -> None:
        """No push carrying rates version v, or installing a rollout host,
        precedes the journal record that says so; an aborted rollout
        installs nobody."""
        trace = self.sim.trace
        for kind, item in trace[self._traced:]:
            if kind == "journal":
                op, query_id = item.get("op"), item.get("query_id")
                if op == "rates":
                    self._rates[query_id] = item["version"]
                elif op == "rollout":
                    self._installed[query_id] = set(item["installed"])
                elif op == "submit" and "rollout" in item:
                    self._installed.setdefault(query_id, set())
            elif kind == "push" and item.msg_type == MsgType.INSTALL:
                query_id = item.message["query_id"]
                rates = item.message.get("rates")
                if rates is not None:
                    require(
                        self._rates.get(query_id, 0) >= rates["version"],
                        "journal-before-fan-out",
                        f"{query_id}: INSTALL carried rates v{rates['version']}, journal "
                        f"had v{self._rates.get(query_id, 0)}",
                    )
                if query_id in self._installed:
                    require(
                        item.session.host in self._installed[query_id],
                        "journal-before-fan-out",
                        f"{query_id}: INSTALL to {item.session.host} before a rollout "
                        f"record named it installed",
                    )
                require(
                    query_id not in self._aborted, "aborted-rollout-is-frozen",
                    f"{query_id}: INSTALL to {item.session.host} after the abort",
                )
        self._traced = len(trace)

    def _check_journal(self) -> None:
        """A plane rebuilt from the journal at this boundary agrees with
        the live one, and replaying the journal twice equals once."""
        sim = self.sim
        if len(sim.journal) == self._journal_len:
            return
        self._journal_len = len(sim.journal)
        state = replay(sim.journal)
        require(
            replay(sim.journal + sim.journal) == state, "replay-idempotent",
            "replaying the journal twice differs from replaying it once",
        )
        shadow = ControlPlane(EventRegistry(), CentralEngine())
        shadow.recover(state)
        live_plane = sim.plane
        require(
            set(shadow.running) == set(live_plane.running), "rebuild-equals-live",
            f"running: journal says {sorted(shadow.running)}, plane {sorted(live_plane.running)}",
        )
        for query_id, live in live_plane.running.items():
            rebuilt = shadow.running[query_id]
            if live.rollout is not None:
                mine = (live.rollout.state, live.rollout.stage,
                        list(live.rollout.installed), list(live.rollout.order))
                theirs = (rebuilt.rollout.state, rebuilt.rollout.stage,
                          list(rebuilt.rollout.installed), list(rebuilt.rollout.order))
                require(
                    mine == theirs, "rebuild-equals-live",
                    f"{query_id} rollout: plane {mine}, journal {theirs}",
                )
            if live.controller is not None:
                require(
                    (live.controller.version, live.controller.event_rate)
                    == (rebuilt.controller.version, rebuilt.controller.event_rate),
                    "rebuild-equals-live",
                    f"{query_id} rates: plane v{live.controller.version}, "
                    f"journal v{rebuilt.controller.version}",
                )

    def _check_coverage(self) -> None:
        """Every targeted host absent from a closed window is named in
        coverage.missing with a state — and a host with no session is
        never merely "silent"."""
        sim = self.sim
        for query_id in self.queries.values():
            if query_id in sim.plane.results:
                windows = sim.plane.results[query_id].windows
            elif sim.engine.is_registered(query_id):
                windows = sim.engine.results_so_far(query_id).windows
            else:
                continue
            seen = self._windows.get(query_id, 0)
            if len(windows) < seen:
                seen = 0  # a recovered plane starts its windows over
            for window in windows[seen:]:
                coverage = window.coverage
                require(coverage is not None, "coverage-names-the-missing",
                        f"{query_id}: a window closed without coverage")
                for name in coverage.expected:
                    if name in coverage.reporting:
                        continue
                    state = coverage.missing.get(name)
                    require(
                        bool(state), "coverage-names-the-missing",
                        f"{query_id} [{window.window_start}]: {name} absent and unnamed",
                    )
                    if sim.plane.fleet.conn(name) is None:
                        require(
                            state != "silent", "coverage-names-the-missing",
                            f"{query_id} [{window.window_start}]: {name} has no session "
                            f"yet coverage calls it silent",
                        )
            self._windows[query_id] = len(windows)

    def _check_aborted(self) -> None:
        for query_id, live in self.sim.plane.running.items():
            rollout = live.rollout
            if rollout is None or rollout.state != "aborted":
                continue
            frozen = (list(rollout.order), list(rollout.installed))
            if query_id not in self._aborted:
                self._aborted[query_id] = frozen
                self.tally["aborts"] += 1
            require(
                self._aborted[query_id] == frozen, "aborted-rollout-is-frozen",
                f"{query_id}: was {self._aborted[query_id]}, now {frozen}",
            )

    def _check_agent_versions(self) -> None:
        """An agent's applied rates version never decreases while the
        query stays installed on it."""
        query_id = self.queries.get("target")
        if query_id is None:
            return
        for host in self.sim.hosts.values():
            key = (host.name, id(host.agent))
            if query_id not in host.agent.active_query_ids:
                self._versions.pop(key, None)
                continue
            version = host.agent.rates_version(query_id)
            require(
                version >= self._versions.get(key, 0), "rates-version-monotone",
                f"{host.name}: {query_id} went v{self._versions.get(key)} -> v{version}",
            )
            self._versions[key] = version


@pytest.mark.parametrize("seed", range(SEEDS))
def test_sweep(seed):
    Scenario(seed).run()


def test_the_sweep_is_not_vacuous():
    """Across a slice of the seeds, every kind of event the invariants are
    about actually happens."""
    tally = collections.Counter()
    for seed in range(24):
        scenario = Scenario(seed)
        scenario.run()
        tally += scenario.tally
    for kind in ("widens", "retunes", "crashes", "aborts", "partition", "restart"):
        assert tally[kind] >= 3, (kind, dict(tally))


# -- planted bugs: each must be caught, by the invariant that names it ---------------


def _first_violation(seeds=range(60)) -> Violation:
    for seed in seeds:
        try:
            Scenario(seed).run()
        except Violation as violation:
            return violation
    raise AssertionError("the sweep did not notice the planted bug")


def test_planted_journal_after_fan_out(monkeypatch):
    real_tick = ControlPlane.tick

    def journal_last(self, now):
        effects = real_tick(self, now)
        return sorted(effects, key=lambda effect: isinstance(effect, Journal))

    monkeypatch.setattr(ControlPlane, "tick", journal_last)
    assert _first_violation().invariant == "journal-before-fan-out"


def test_planted_bake_advances_while_a_canary_is_detached(monkeypatch):
    def bake_regardless(self, now, effects):
        for query_id, live in self.running.items():
            rollout = live.rollout
            if rollout is None or not rollout.active or now >= live.expires_at:
                continue
            abort = rollout.check_health(
                self.engine.quarantines().get(query_id, {}), self.fleet.ewma_by_host(query_id)
            )
            if abort is not None:
                self._abort_rollout(query_id, rollout, abort, effects)
            elif rollout.tick_healthy():  # the bug: no "is every canary attached?" gate
                self._widen_rollout(query_id, live, effects)

    monkeypatch.setattr(ControlPlane, "_rollout_tick", bake_regardless)
    assert _first_violation().invariant == "widen-needs-health-evidence"


def test_planted_stale_rates_version_on_replay(monkeypatch):
    real_resume = ControlPlane._resume

    def resume_one_version_behind(self, query_id, record, rollout_record, rates_record):
        real_resume(self, query_id, record, rollout_record, rates_record)
        controller = self.running[query_id].controller
        if controller is not None and controller.version > 0:
            controller.version -= 1

    monkeypatch.setattr(ControlPlane, "_resume", resume_one_version_behind)
    assert _first_violation().invariant in ("rebuild-equals-live", "journal-before-fan-out")


def test_planted_lease_expiry_does_not_mark_delivery(monkeypatch):
    real_evict = ControlPlane._evict

    def evict_unmarked(self, session, error, message, now, delivery="disconnected"):
        if error != "lease-expired":
            return real_evict(self, session, error, message, now, delivery)
        self.fleet.detach(session.host, now)
        return [Evict(session, error, message)]

    monkeypatch.setattr(ControlPlane, "_evict", evict_unmarked)
    assert _first_violation().invariant == "coverage-names-the-missing"


def test_planted_late_joiner_admitted_to_an_aborted_rollout(monkeypatch):
    monkeypatch.setattr(plane_module, "ROLLOUT_ABORTED", "never")
    assert _first_violation().invariant == "aborted-rollout-is-frozen"
