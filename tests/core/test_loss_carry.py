"""LossCarry: a lost batch's loss goes back to its own query, as a
loss-only frame, and what cannot be kept is counted."""

from repro.core.agent import carry as carry_module
from repro.core.agent.carry import LossCarry
from repro.core.agent.transport import EventBatch, PartialAggregate, decode_full_batch
from repro.core.events import Event


def _lost(query_id: str, **fields) -> EventBatch:
    return EventBatch(host="h1", query_id=query_id, **fields)


def test_each_query_gets_its_own_loss_back():
    carry = LossCarry("h1")
    events = [Event("pv", {"u": i}, i, 71.0, "h1") for i in range(2)]
    carry.add(_lost("qa", events=events, dropped=3, shed=4, seen_counts={("pv", 7): 5}))
    carry.add(_lost("qb", dropped=1, seen_counts={("click", 9): 1}))
    carry.add(_lost("qa", dropped=1, seen_counts={("pv", 7): 1, ("pv", 8): 2}))
    taken = {batch.query_id: batch for batch in carry.take(80.0)}
    assert not carry and carry.take(81.0) == []
    qa, qb = taken["qa"], taken["qb"]
    assert (qa.event_count, qa.dropped, qa.shed) == (0, 2 + 3 + 1, 4)
    assert qa.seen_counts == {("pv", 7): 6, ("pv", 8): 2}
    assert (qb.dropped, qb.shed, qb.seen_counts) == (1, 0, {("click", 9): 1})
    # Written by the flush writer: a frame the central reads like any other.
    assert decode_full_batch(qa.frame) == qa and qa.sent_at == 80.0


def test_quarantine_notice_is_resent_until_delivered():
    carry = LossCarry("h1")
    carry.add(_lost("qa", quarantined="cpu budget"))
    (first,) = carry.take(1.0)
    carry.add(first)  # the loss-only batch is lost in turn
    (second,) = carry.take(2.0)
    assert second.quarantined == "cpu budget"
    assert carry.take(3.0) == []


def test_what_cannot_be_kept_is_counted(monkeypatch):
    monkeypatch.setattr(carry_module, "CARRY_SEEN_CAP", 2)
    carry = LossCarry("h1")
    carry.add(_lost("qa", seen_counts={("pv", 1): 1, ("pv", 2): 1, ("pv", 3): 1}))
    carry.add(_lost("qb", seen_counts={("pv", 1): 4}))
    carry.add(_lost("qa", seen_counts={("pv", 1): 1}))  # a kept entry still folds
    partial = PartialAggregate("pv", 1, ("a",), (3,))
    carry.add(_lost("qa", partials=[partial, partial]))
    assert carry.seen_overflow == 2 and carry.partials_lost == 2
    (qa,) = carry.take(0.0)
    assert qa.seen_counts == {("pv", 1): 2, ("pv", 2): 1}
