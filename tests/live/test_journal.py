"""QueryJournal: append/replay round trips, torn-tail tolerance, and the
sequence floor that keeps a recovered daemon from reusing query ids."""

import json

from repro.core.events import EventSchema
from repro.core.control.journal import (
    finish_record,
    rates_record,
    rollout_record,
    schema_record,
    submit_record,
)
from repro.live.journal import QueryJournal, open_journal

PV = EventSchema("pv", [("url", "string"), ("latency_ms", "double")], doc="page view")


def _journal(tmp_path) -> QueryJournal:
    return QueryJournal(str(tmp_path / "scrubd.journal"))


class TestRoundTrip:
    def test_fresh_file_replays_empty(self, tmp_path):
        journal = _journal(tmp_path)
        assert journal.state.schemas == []
        assert journal.state.open_queries == {}
        assert journal.state.finished == set()
        assert journal.state.max_sequence == 0
        journal.close()

    def test_submit_then_reload_sees_open_query(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(schema_record(PV))
        journal.append(submit_record(
            "q00003", "select ...;", 10.0, 70.0,
            planned=("web-0", "web-1"), targeted=("web-0",),
        ))
        journal.close()

        reloaded = QueryJournal(journal.path)
        assert [s.name for s in reloaded.state.schemas] == ["pv"]
        assert reloaded.state.schemas[0] == PV
        record = reloaded.state.open_queries["q00003"]
        assert record["query"] == "select ...;"
        assert record["targeted"] == ["web-0"]
        assert record["activates_at"] == 10.0
        assert reloaded.state.max_sequence == 3
        reloaded.close()

    def test_finish_closes_the_submit(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(submit_record("q00001", "a;", 0.0, 1.0, ("h",), ("h",)))
        journal.append(submit_record("q00002", "b;", 0.0, 1.0, ("h",), ("h",)))
        journal.append(finish_record("q00001"))
        journal.close()

        reloaded = QueryJournal(journal.path)
        assert set(reloaded.state.open_queries) == {"q00002"}
        assert reloaded.state.finished == {"q00001"}
        # Finished ids still raise the sequence floor.
        assert reloaded.state.max_sequence == 2
        reloaded.close()

    def test_reopen_appends_not_truncates(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(submit_record("q00001", "a;", 0.0, 1.0, ("h",), ("h",)))
        journal.close()
        again = QueryJournal(journal.path)
        again.append(finish_record("q00001"))
        again.close()
        final = QueryJournal(journal.path)
        assert final.state.finished == {"q00001"}
        assert final.state.open_queries == {}
        final.close()


class TestRolloutRecords:
    def test_last_rollout_record_wins_on_replay(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(submit_record(
            "q00001", "a;", 0.0, 600.0,
            planned=("h0", "h1", "h2", "h3"), targeted=("h0", "h1", "h2", "h3"),
            rollout={"canary_hosts": 1, "widen_factor": 2.0, "bake_intervals": 2},
        ))
        journal.append(rollout_record(
            "q00001", "canary", 0, ("h0", "h1", "h2", "h3"), ("h0",)
        ))
        journal.append(rollout_record(
            "q00001", "widening", 1, ("h0", "h1", "h2", "h3"), ("h0", "h1")
        ))
        journal.close()

        reloaded = QueryJournal(journal.path)
        record = reloaded.state.rollouts["q00001"]
        assert record["state"] == "widening"
        assert record["stage"] == 1
        assert record["installed"] == ["h0", "h1"]
        assert record["order"] == ["h0", "h1", "h2", "h3"]
        # The submit record still carries the policy for re-planning.
        submit = reloaded.state.open_queries["q00001"]
        assert submit["rollout"]["canary_hosts"] == 1
        reloaded.close()

    def test_abort_record_survives_replay(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(submit_record(
            "q00001", "a;", 0.0, 600.0, ("h0", "h1"), ("h0", "h1"),
            rollout={"canary_hosts": 1},
        ))
        journal.append(rollout_record(
            "q00001", "aborted", 0, ("h0", "h1"), ("h0",),
            abort={"reason": "canary-quarantined", "host": "h0",
                   "detail": "impact-budget-exceeded: test", "stage": 0},
        ))
        journal.close()

        reloaded = QueryJournal(journal.path)
        record = reloaded.state.rollouts["q00001"]
        assert record["state"] == "aborted"
        assert record["abort"]["reason"] == "canary-quarantined"
        assert record["abort"]["host"] == "h0"
        reloaded.close()

    def test_finish_clears_the_rollout_with_its_submit(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(submit_record(
            "q00001", "a;", 0.0, 1.0, ("h",), ("h",), rollout={"canary_hosts": 1},
        ))
        journal.append(rollout_record("q00001", "complete", 1, ("h",), ("h",)))
        journal.append(finish_record("q00001"))
        journal.close()

        reloaded = QueryJournal(journal.path)
        assert reloaded.state.rollouts == {}
        assert reloaded.state.open_queries == {}
        assert reloaded.state.finished == {"q00001"}
        reloaded.close()

    def test_plain_submit_carries_no_rollout_key(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(submit_record("q00001", "a;", 0.0, 1.0, ("h",), ("h",)))
        journal.close()
        reloaded = QueryJournal(journal.path)
        assert "rollout" not in reloaded.state.open_queries["q00001"]
        assert reloaded.state.rollouts == {}
        reloaded.close()


class TestCrashTolerance:
    def test_torn_trailing_record_is_dropped(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(submit_record("q00001", "a;", 0.0, 1.0, ("h",), ("h",)))
        journal.close()
        # Simulate a crash mid-append: a half-written record at the tail.
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "submit", "query_id": "q000')

        reloaded = QueryJournal(journal.path)
        assert set(reloaded.state.open_queries) == {"q00001"}
        assert reloaded.state.torn_records == 1
        reloaded.close()

    def test_torn_tail_is_truncated_so_recovery_appends_survive(self, tmp_path):
        # Crash 1 leaves a torn record; the recovered daemon journals
        # more work; crash 2 must replay *all* of it — the torn tail may
        # not swallow the first post-recovery append.
        journal = _journal(tmp_path)
        journal.append(submit_record("q00001", "a;", 0.0, 1.0, ("h",), ("h",)))
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "submit", "query_id": "q000')

        recovered = QueryJournal(journal.path)  # recovery after crash 1
        assert recovered.state.torn_records == 1
        recovered.append(submit_record("q00002", "b;", 0.0, 1.0, ("h",), ("h",)))
        recovered.append(finish_record("q00001"))
        recovered.close()

        final = QueryJournal(journal.path)  # recovery after crash 2
        assert final.state.torn_records == 0
        assert set(final.state.open_queries) == {"q00002"}
        assert final.state.finished == {"q00001"}
        # The sequence floor must not regress: q00002 was issued.
        assert final.state.max_sequence == 2
        final.close()

    def test_decodable_fragment_without_newline_is_still_torn(self, tmp_path):
        # A crash can land exactly between the record bytes and the
        # newline; the fragment parses, but appending onto it would
        # corrupt the next record, so it counts as torn and is dropped.
        journal = _journal(tmp_path)
        journal.append(submit_record("q00001", "a;", 0.0, 1.0, ("h",), ("h",)))
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"op":"finish","query_id":"q00001"}')  # no \n

        recovered = QueryJournal(journal.path)
        assert recovered.state.torn_records == 1
        assert set(recovered.state.open_queries) == {"q00001"}
        recovered.append(finish_record("q00001"))
        recovered.close()

        final = QueryJournal(journal.path)
        assert final.state.torn_records == 0
        assert final.state.finished == {"q00001"}
        assert final.state.open_queries == {}
        final.close()

    def test_magic_header_written_once(self, tmp_path):
        journal = _journal(tmp_path)
        journal.close()
        again = QueryJournal(journal.path)
        again.close()
        with open(journal.path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert records == [{"journal": "scrub-query-journal", "version": 1}]


def test_open_journal_propagates_none():
    assert open_journal(None) is None


class TestRatesRecords:
    def test_last_rates_record_wins_on_replay(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(submit_record("q00001", "a;", 0.0, 60.0, ("h",), ("h",)))
        journal.append(rates_record("q00001", 1, 1.0, 0.7071, reason="relax"))
        journal.append(rates_record("q00001", 2, 1.0, 0.5, reason="relax"))
        journal.append(rates_record("q00001", 3, 1.0, 0.25, reason="clamp"))
        journal.close()

        reloaded = QueryJournal(journal.path)
        record = reloaded.state.rates["q00001"]
        assert record["version"] == 3
        assert record["event_rate"] == 0.25
        assert record["reason"] == "clamp"
        reloaded.close()

    def test_finish_clears_the_rates_with_its_submit(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append(submit_record("q00001", "a;", 0.0, 60.0, ("h",), ("h",)))
        journal.append(rates_record("q00001", 1, 1.0, 0.5))
        journal.append(finish_record("q00001"))
        journal.close()

        reloaded = QueryJournal(journal.path)
        assert reloaded.state.rates == {}
        assert reloaded.state.finished == {"q00001"}
        reloaded.close()

    def test_torn_rates_append_replays_previous_version(self, tmp_path):
        # A SIGKILL mid-append must recover to the last *journalled*
        # retune, never a half-written one.
        journal = _journal(tmp_path)
        journal.append(submit_record("q00001", "a;", 0.0, 60.0, ("h",), ("h",)))
        journal.append(rates_record("q00001", 1, 1.0, 0.7071))
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as f:
            f.write('{"op":"rates","query_id":"q00001","version":2,"ev')

        reloaded = QueryJournal(journal.path)
        assert reloaded.state.torn_records == 1
        assert reloaded.state.rates["q00001"]["version"] == 1
        reloaded.close()
