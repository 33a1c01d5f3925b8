"""Smoke tests for the live-path benchmark.  Run explicitly (they start
real daemons and take about two minutes; tier-1 ``testpaths`` skip them):

    python -m pytest benchmarks/e2e/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO_ROOT / "src")]

from live import chunk_due, percentile  # noqa: E402
from workloads import CHUNK, WORKLOADS, check_results, expected_totals  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- the open-loop scheduler ------------------------------------------------------


def test_chunk_due_times_are_a_fixed_schedule():
    t0 = 1000.0
    assert chunk_due(t0, 0, 30_000) == t0
    # 300 chunks of 100 events are one second of a 30 000 ev/s stream.
    assert chunk_due(t0, 300, 30_000) == pytest.approx(t0 + 1.0)
    assert chunk_due(t0, 200, 20_000) == pytest.approx(t0 + 1.0)
    # Due times depend on the index alone: a late chunk never moves, or
    # skips, the ones after it.
    gaps = {
        round(chunk_due(t0, k + 1, 30_000) - chunk_due(t0, k, 30_000), 9)
        for k in range(1000)
    }
    assert gaps == {round(CHUNK / 30_000, 9)}


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.99) == 5.0


# -- the oracle --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_closed_form_totals_match_enumeration(name):
    workload = WORKLOADS[name]
    n_events = workload.period * 2 + 1234
    totals, bids, matched = expected_totals(workload, 7, n_events)
    brute = [{} for _ in workload.queries]
    brute_bids = brute_matched = 0
    for i in range(n_events):
        etype, payload, _rid = workload.event(i, 7)
        if etype != "bid":
            continue
        brute_bids += 1
        hit = False
        for query, per_group in zip(workload.queries, brute):
            if query.where(payload):
                hit = True
                slot = per_group.setdefault(payload.get(query.group), [0, 0.0])
                slot[0] += 1
                slot[1] += payload["bid_price"]
        brute_matched += hit
    assert (totals, bids, matched) == (brute, brute_bids, brute_matched)


def test_same_seed_same_stream_and_seeds_differ():
    workload = WORKLOADS["host_mixed"]
    assert workload.chunk(0, 3) == workload.chunk(0, 3)
    assert workload.chunk(0, 3) != workload.chunk(0, 4)


def test_oracle_accepts_replayed_rows_and_rejects_a_truncated_set():
    from replay import Layers, Tracer, _pass

    workload = WORKLOADS["host_mixed"]
    n_events = 3 * workload.rate
    out = _pass(Layers(), workload, 5, n_events, Tracer(record=False))
    assert check_results(workload, 5, n_events, out["results"]) == []
    # A result set that lost its last window no longer adds up.
    out["results"][0].windows.pop()
    problems = check_results(workload, 5, n_events, out["results"])
    assert problems and "query 0" in problems[0]
    # Nor does one checked against a longer stream than was logged.
    assert check_results(workload, 5, n_events + CHUNK, out["results"])


# -- BENCHMARK.json and the command -------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert 1 <= SPEC["run_seconds"] <= 60 and len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_reports_every_metric_of_benchmark_json(name, trace):
    done = run_bench("--workload", name, "--seed", "11", "--smoke", "--trace", trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)), metric["name"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "nproc" in done.stdout and "Python" in done.stdout


def test_exits_non_zero_without_a_source_tree(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is no program to measure: fail, print no result."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = run_bench("--workload", "heavy_ship", "--seed", "1", "--seconds", "2",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
