"""The sketch kernels against the per-item oracle, state for state.

``HyperLogLog.update`` and ``SpaceSaving.update`` are each sketch's one
update routine (``add``, ``offer`` and ``merge`` go through them);
``sketch_oracle.py`` keeps the per-item code they replaced.  Hypothesis
drives both with the same items and requires identical state, not just
identical estimates: HLL registers byte-equal; Space-Saving totals,
counters (typed item, count, error, in table order) and every bucket's
value and head order — so the same victims are evicted later.

Items cover every type that reaches a sketch: ints (across ±2**63, and
past ±2**127, where the hash input overflows and both sides must raise
at the same item), bools (``True`` and ``1`` hash apart but are one
Space-Saving key), floats (NaN too), strings, bytes, ``None`` and
tuples.  Items are drawn from a small pool so they repeat, and
capacities 1–8 make Space-Saving evict.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx.hyperloglog import HyperLogLog
from repro.core.approx.spacesaving import SpaceSaving
from repro.core.central.aggregates import CountDistinctState, TopKState

from .sketch_oracle import (
    OracleHyperLogLog,
    OracleSpaceSaving,
    hll_state,
    oracle_rebuild,
    spacesaving_state,
)

SETTINGS = settings(max_examples=150, deadline=None)

_INT_EDGES = [
    0, 1, -1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64,
    2**127 - 1, -(2**127),  # the last ints the hash input holds
    2**127, -(2**127) - 1, 2**200,  # these overflow it
]

scalars = st.one_of(
    st.integers(min_value=-(2**64), max_value=2**64),
    st.sampled_from(_INT_EDGES),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.none(),
)
items = st.one_of(scalars, st.tuples(scalars, scalars))


def streams(item_strategy=items, max_size=80):
    """A stream over a small pool of items, so that items repeat."""
    return st.lists(item_strategy, min_size=1, max_size=10).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=max_size)
    )


def _overflows(item) -> bool:
    """Whether *item* is an int the hash input cannot hold (past ±2**127;
    anything nested is hashed by its repr)."""
    return type(item) is int and not -(2**127) <= item < 2**127


def _run(update, batch):
    """Feed *batch* through *update*; returns (items consumed, error type)."""
    consumed = 0

    def counted():
        nonlocal consumed
        for item in batch:
            consumed += 1
            yield item

    try:
        update(counted())
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return consumed, type(exc)
    return consumed, None


# -- HyperLogLog ------------------------------------------------------------------


@SETTINGS
@given(
    precision=st.integers(min_value=4, max_value=12),
    stream=streams(),
    cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=4),
)
def test_hll_update_matches_oracle(precision, stream, cuts):
    kernel = HyperLogLog(precision)
    oracle = OracleHyperLogLog(precision)
    bounds = [0, *sorted(c for c in cuts if c < len(stream)), len(stream)]
    for start, end in zip(bounds, bounds[1:]):
        batch = stream[start:end]
        outcome = _run(kernel.update, batch)
        assert outcome == _run(oracle.update, batch)
        assert hll_state(kernel) == hll_state(oracle)
        if outcome[1] is not None:
            # Raised at the same item, with the same registers before it.
            assert outcome[1] is OverflowError
            break


@SETTINGS
@given(precision=st.integers(min_value=4, max_value=8), stream=streams())
def test_hll_add_and_merge_match_oracle(precision, stream):
    stream = [item for item in stream if not _overflows(item)]
    half = len(stream) // 2
    kernels = [HyperLogLog(precision), HyperLogLog(precision)]
    oracles = [OracleHyperLogLog(precision), OracleHyperLogLog(precision)]
    for index, item in enumerate(stream):
        kernels[index >= half].add(item)
        oracles[index >= half].add(item)
    assert [hll_state(k) for k in kernels] == [hll_state(o) for o in oracles]
    kernels[0].merge(kernels[1])
    oracles[0].merge(oracles[1])
    assert hll_state(kernels[0]) == hll_state(oracles[0])
    assert kernels[0].count() == oracles[0].count()


def test_hll_true_and_one_hash_apart():
    """``True`` and ``1`` are one dict key but two HLL items."""
    sketch = HyperLogLog(12)
    sketch.update([1, 1.0, True])
    assert sketch.count() == 3
    oracle = OracleHyperLogLog(12)
    oracle.update([1, 1.0, True])
    assert hll_state(sketch) == hll_state(oracle)


def test_hll_overflowing_int_raises_at_that_item():
    kernel = HyperLogLog(6)
    oracle = OracleHyperLogLog(6)
    batch = [3, "x", 2**127, 5]
    assert _run(kernel.update, batch) == _run(oracle.update, batch) == (3, OverflowError)
    assert hll_state(kernel) == hll_state(oracle)


# -- Space-Saving -----------------------------------------------------------------

ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), streams(items, 30)),
        st.tuples(
            st.just("offer"),
            items,
            st.integers(min_value=1, max_value=5),
        ),
        st.tuples(st.just("merge"), streams(items, 30), st.integers(1, 8)),
    ),
    max_size=8,
)


@SETTINGS
@given(capacity=st.integers(min_value=1, max_value=8), program=ops)
def test_spacesaving_matches_oracle(capacity, program):
    kernel = SpaceSaving(capacity)
    oracle = OracleSpaceSaving(capacity)
    for op in program:
        if op[0] == "update":
            kernel.update(op[1])
            oracle.update(op[1])
        elif op[0] == "offer":
            kernel.offer(op[1], op[2])
            oracle.offer(op[1], op[2])
        else:
            _, stream, other_capacity = op
            kernel_other = SpaceSaving(other_capacity)
            oracle_other = OracleSpaceSaving(other_capacity)
            kernel_other.update(stream)
            oracle_other.update(stream)
            assert spacesaving_state(kernel_other) == spacesaving_state(oracle_other)
            kernel.merge(kernel_other)
            oracle.merge(oracle_other)
        assert spacesaving_state(kernel) == spacesaving_state(oracle)
    assert kernel.top(capacity) == oracle.top(capacity)


@SETTINGS
@given(capacity=st.integers(min_value=1, max_value=8), stream=streams(items))
def test_spacesaving_pickle_then_update_matches_oracle(capacity, stream):
    """A summary rebuilt from its pickle (the shard-pool boundary) has
    the oracle rebuild's buckets, and keeps evicting like it."""
    half = len(stream) // 2
    kernel = SpaceSaving(capacity)
    kernel.update(stream[:half])
    _rebuild, args = kernel.__reduce__()
    oracle = oracle_rebuild(*args)
    kernel = pickle.loads(pickle.dumps(kernel))
    assert spacesaving_state(kernel) == spacesaving_state(oracle)
    for item in stream[half:]:
        kernel.offer(item)
        oracle.offer(item)
        assert spacesaving_state(kernel) == spacesaving_state(oracle)


def test_spacesaving_rejects_non_positive_counts():
    summary = SpaceSaving(4)
    with pytest.raises(ValueError):
        summary.offer("a", 0)
    with pytest.raises(ValueError):
        summary.update(["a"], -1)
    assert spacesaving_state(summary) == (0, [], [])


# -- the aggregate states -------------------------------------------------------

nested = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=6,
)


@SETTINGS
@given(stream=streams(nested, 60), k=st.integers(min_value=1, max_value=3))
def test_states_update_many_matches_per_value_oracle(stream, k):
    """``update_many`` (one kernel call per group) ≡ per-value ``update``
    on oracle sketches, values folded through ``_hashable`` (NaN, lists,
    dicts) and NULLs skipped."""
    stream = [v for v in stream if not _overflows(v)]
    distinct = CountDistinctState(precision=6)
    distinct.update_many(stream)
    oracle_distinct = CountDistinctState(precision=6)
    oracle_distinct.sketch = OracleHyperLogLog(6)
    for value in stream:
        oracle_distinct.update(value)
    assert hll_state(distinct.sketch) == hll_state(oracle_distinct.sketch)

    top = TopKState(k)
    top.summary = SpaceSaving(3)  # small enough to evict
    top.update_many(stream)
    oracle_top = TopKState(k)
    oracle_top.summary = OracleSpaceSaving(3)
    for value in stream:
        oracle_top.update(value)
    assert spacesaving_state(top.summary) == spacesaving_state(oracle_top.summary)
    assert top.result() == oracle_top.result()
