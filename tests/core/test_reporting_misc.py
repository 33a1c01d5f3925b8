"""Tests for the reporting helper and miscellaneous public surfaces."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.central.window import SlidingWindowAssigner, TumblingWindowAssigner
from repro.reporting import ExperimentReport


class TestExperimentReport:
    def test_table_alignment(self):
        report = ExperimentReport("X1", "demo")
        report.table("t", ["name", "value"], [["a", 1], ["longer", 2.5]])
        text = report.text()
        assert "== X1: demo ==" in text
        lines = text.splitlines()
        header = next(line for line in lines if "name" in line)
        separator = lines[lines.index(header) + 1]
        assert len(header) == len(separator)

    def test_float_formatting(self):
        report = ExperimentReport("X2", "demo")
        report.table("t", ["v"], [[0.123456], [12345.6789], [1e-9], [0.0]])
        text = report.text()
        assert "0.1235" in text
        assert "1.235e+04" in text or "12345" in text.replace(",", "")
        assert "1e-09" in text
        assert "\n        0\n" in text or " 0\n" in text

    def test_emit_writes_artifact(self, tmp_path):
        report = ExperimentReport("X3", "demo")
        report.note("a note")
        report.table("t", ["v"], [[1]])
        path = report.emit(directory=str(tmp_path))
        assert os.path.basename(path) == "X3.txt"
        with open(path) as fh:
            content = fh.read()
        assert "a note" in content

    def test_empty_table(self):
        report = ExperimentReport("X4", "demo")
        report.table("t", ["a", "b"], [])
        assert "a" in report.text()


class TestWindowAssignerProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        ts=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        length_slide=st.sampled_from([(10.0, 5.0), (10.0, 2.0), (60.0, 15.0)]),
    )
    def test_sliding_event_in_exactly_length_over_slide_windows(
        self, ts, length_slide
    ):
        length, slide = length_slide
        assigner = SlidingWindowAssigner(length, slide=slide)
        windows = list(assigner.assign(ts))
        # Every assigned window covers the timestamp...
        for index in windows:
            assert assigner.start_of(index) <= ts < assigner.end_of(index)
        # ...and the count is length/slide (fewer near t=0 where negative
        # indices would be needed).
        expected = int(length // slide)
        assert len(windows) <= expected
        if ts >= length:
            assert len(windows) == expected

    @settings(max_examples=200, deadline=None)
    @given(ts=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_tumbling_partition(self, ts):
        assigner = TumblingWindowAssigner(10.0)
        (index,) = assigner.assign(ts)
        assert assigner.start_of(index) <= ts < assigner.end_of(index)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    )
    def test_tumbling_same_window_iff_same_bucket(self, a, b):
        assigner = TumblingWindowAssigner(7.0)
        (wa,) = assigner.assign(a)
        (wb,) = assigner.assign(b)
        assert (wa == wb) == (int(a // 7.0) == int(b // 7.0))


class TestPartialAggregateWireSize:
    def test_partials_counted_in_batch_size(self):
        from repro.core.agent.transport import EventBatch, PartialAggregate

        empty = EventBatch(host="h", query_id="q", events=[])
        with_partials = EventBatch(
            host="h", query_id="q", events=[],
            partials=[
                PartialAggregate("bid", 0, (1,), (5, (2.0, True))),
                PartialAggregate("bid", 0, ("somekey",), (3,)),
            ],
        )
        assert len(with_partials.frame) > len(empty.frame)

    def test_string_keys_cost_their_length(self):
        from repro.core.agent.transport import EventBatch, PartialAggregate

        short = EventBatch(host="h", query_id="q", events=[], partials=[
            PartialAggregate("bid", 0, ("a",), (1,))
        ])
        long = EventBatch(host="h", query_id="q", events=[], partials=[
            PartialAggregate("bid", 0, ("a" * 100,), (1,))
        ])
        assert len(long.frame) > len(short.frame) + 90
