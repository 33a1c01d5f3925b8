"""The control plane by itself: messages in, effects out, no shell.

Decisions that used to need a daemon, sockets and sleeps to observe —
epoch takeover, what a refused hello leaves behind, the order a submit's
effects come in — are asserted here on the returned values; and the
message entry points are fuzzed with arbitrary JSON-shaped payloads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.central.engine import CentralEngine
from repro.core.control import ControlPlane, Evict, Journal, MsgType, Push, Reply, Session
from repro.core.events import EventRegistry

from .sim import PV_FIELDS, QUERY, TARGET_QUERY, ControlSim

PV = {"name": "pv", "fields": [list(f) for f in PV_FIELDS], "doc": ""}


def _plane() -> ControlPlane:
    return ControlPlane(EventRegistry(), CentralEngine(), lease_seconds=10.0)


def _hello(plane, name="web-0", epoch=1, schemas=(PV,), **extra):
    session = Session(peer=name)
    message = {"host": name, "epoch": epoch, "services": ["Frontends"],
               "schemas": list(schemas), **extra}
    return session, plane.hello(session, message, 0.0)


class TestRegistration:
    def test_accepted_hello_is_hello_ok_then_sync(self):
        plane = _plane()
        session, effects = _hello(plane)
        assert [type(e) for e in effects] == [Journal, Push, Push]
        assert effects[0].record["op"] == "schema"
        assert [e.msg_type for e in effects[1:]] == [MsgType.HELLO_OK, MsgType.SYNC]
        assert plane.fleet.conn("web-0") is session

    def test_newer_epoch_takes_over_and_the_old_session_is_told_why(self):
        plane = _plane()
        old, _ = _hello(plane, epoch=5)
        new, effects = _hello(plane, epoch=6)
        evict = effects[0]
        assert isinstance(evict, Evict) and evict.session is old
        assert evict.error == "superseded"
        assert plane.fleet.conn("web-0") is new
        # The old connection's exit must not unregister the newcomer.
        assert plane.disconnected(old, 1.0) == []
        assert plane.fleet.conn("web-0") is new

    def test_equal_or_older_epoch_is_refused_not_evicting(self):
        plane = _plane()
        current, _ = _hello(plane, epoch=5)
        for epoch in (5, 4):
            zombie, effects = _hello(plane, epoch=epoch)
            (reply,) = effects
            assert reply.msg_type == MsgType.ERROR
            assert reply.message["error"] == "duplicate-host"
            assert zombie.host is None
        assert plane.fleet.conn("web-0") is current

    def test_schema_conflict_registers_nothing_not_even_the_good_schemas(self):
        plane = _plane()
        _hello(plane)
        other = {"name": "click", "fields": [["url", "string"]], "doc": ""}
        clash = {"name": "pv", "fields": [["url", "long"]], "doc": ""}
        _session, effects = _hello(plane, name="web-1", schemas=(other, clash))
        (reply,) = effects
        assert reply.message["error"] == "schema-conflict"
        assert "click" not in plane.registry
        assert "web-1" not in plane.fleet

    def test_takeover_blocked_by_a_schema_conflict_keeps_the_old_session(self):
        plane = _plane()
        current, _ = _hello(plane, epoch=1)
        clash = {"name": "pv", "fields": [["url", "long"]], "doc": ""}
        _session, effects = _hello(plane, epoch=2, schemas=(clash,))
        assert [type(e) for e in effects] == [Reply]
        assert plane.fleet.conn("web-0") is current


class TestSubmit:
    def test_effects_come_journal_first_reply_last(self):
        sim = ControlSim()
        for i in range(3):
            sim.add_host(f"web-{i}")
        effects = sim.plane.request(
            MsgType.SUBMIT,
            {"query": QUERY, "rollout": {"canary_hosts": 1}},
            sim.now,
        )
        kinds = [type(e) for e in effects]
        assert kinds == [Journal, Journal, Push, Reply]
        assert [e.record["op"] for e in effects[:2]] == ["submit", "rollout"]
        assert effects[2].msg_type == MsgType.INSTALL
        assert effects[3].msg_type == MsgType.SUBMIT_OK

    def test_a_refused_submit_changes_nothing(self):
        sim = ControlSim()
        sim.add_host("web-0", services=("Backends",))
        before = sim.stats()
        (reply,) = sim.plane.request(MsgType.SUBMIT, {"query": QUERY}, sim.now)
        assert reply.message["error"] == "ScrubValidationError"
        (reply,) = sim.plane.request(
            MsgType.SUBMIT, {"query": QUERY, "rollout": {"canary_hosts": 0}}, sim.now
        )
        assert "bad rollout policy" in reply.message["message"]
        assert sim.engine.registered_queries() == ()
        after = sim.stats()
        assert (after["running"], after["finished"]) == (before["running"], before["finished"])
        assert sim.journal == [j for j in sim.journal if j["op"] == "schema"]

    def test_submit_time_push_failures_ride_the_reply(self):
        sim = ControlSim()
        sim.add_host("web-0")
        dead = sim.add_host("web-1")
        sim.partition(dead, noticed=False)
        handle = sim.submit(QUERY)
        assert handle["install_failures"] == ["web-1"]
        assert sorted(handle["targeted_hosts"]) == ["web-0", "web-1"]
        assert dead.session is None and sim.plane.push_failures == 1

    def test_cost_watch_names_only_hosts_a_tick_will_consult(self):
        sim = ControlSim()
        for i in range(4):
            sim.add_host(f"web-{i}")
        sim.submit(QUERY)
        assert sim.plane.cost_watch() == []
        sim.submit(
            "select COUNT(*) from pv @[Servers in (web-1, web-2)] "
            "window 5s duration 600s target ci 10%;"
        )
        assert sorted(s.host for s in sim.plane.cost_watch()) == ["web-1", "web-2"]


# -- fuzzing the message entry points ------------------------------------------------

_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
    st.text(max_size=6), st.sampled_from(["web-0", "Frontends", "pv", "q00001", QUERY]),
)
_json = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(st.text(max_size=8), children, max_size=3)
    ),
    max_leaves=8,
)
_KEYS = ["host", "epoch", "services", "datacenter", "schemas", "query", "rollout",
         "query_id", "query_costs", "canary_hosts", "name", "fields"]
_message = st.one_of(
    _json, st.dictionaries(st.sampled_from(_KEYS), _json, max_size=6)
)


def _well_formed(effects) -> bool:
    return isinstance(effects, list) and all(
        isinstance(e, (Journal, Push, Evict, Reply)) for e in effects
    )


def _no_half_state(plane: ControlPlane) -> None:
    assert set(plane.running) == set(plane.engine.registered_queries())
    for member in plane.fleet.live():
        assert member.conn.host == member.name
        assert isinstance(member.name, str) and member.name


@settings(max_examples=300, deadline=None)
@given(hello=_message, heartbeat=_message, request=_message,
       kind=st.sampled_from([MsgType.SUBMIT, MsgType.POLL, MsgType.FINISH, MsgType.STATS]))
def test_entry_points_never_raise_and_leave_no_half_state(hello, heartbeat, request, kind):
    sim = ControlSim()
    sim.add_host("web-0")
    sim.submit(TARGET_QUERY)
    plane = sim.plane
    members, schemas, journal = len(plane.fleet), len(plane.registry), len(sim.journal)

    session = Session(peer=None)
    effects = plane.hello(session, hello, sim.now)
    assert _well_formed(effects)
    if session.host is None:
        # Refused: one ERROR, and nothing was registered anywhere.
        (reply,) = effects
        assert reply.msg_type == MsgType.ERROR
        assert (len(plane.fleet), len(plane.registry)) == (members, schemas)
        assert not any(isinstance(e, Journal) for e in effects)
    else:
        assert plane.fleet.conn(session.host) is session
    _no_half_state(plane)

    attached = plane.fleet.conn("web-0") or session
    assert plane.agent_message(attached, MsgType.HEARTBEAT, heartbeat, sim.now) == []
    assert isinstance(attached.query_costs, dict)
    assert all(isinstance(v, dict) for v in attached.query_costs.values())

    effects = plane.request(kind, request, sim.now)
    assert _well_formed(effects)
    reply = effects[-1]
    assert isinstance(reply, Reply)
    if reply.msg_type == MsgType.ERROR:
        assert set(reply.message) == {"error", "message"}
        assert reply.message["error"] != "internal", reply.message
    _no_half_state(plane)
    assert len(sim.journal) == journal  # nothing here was performed
