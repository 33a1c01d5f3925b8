#!/usr/bin/env python3
"""The live-path cost benchmark: LiveAgent -> socket -> scrubd -> window close -> POLL.

    python benchmarks/e2e/bench.py [--workload W] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--aa N] [--smoke]

With ``--workload`` this process *is* the load generator: it starts a
real ``scrubd``, drives it on an open-loop schedule, checks every row
against closed-form totals, prints each metric by name and unit, and
ends with one JSON line (``correct``, ``attempted``, ``failed``,
``metrics``).  Wrong results mean a non-zero exit and no JSON line.
Without ``--workload`` it runs all four, each in a fresh process.
See README.md beside this file for every definition.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from daemon import REPO_ROOT, SRC, child_env, sweep_orphans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
EVIDENCE_PATH = HERE / "aa_evidence.json"
SMOKE_SECONDS = 2.0

#: Regression-bound floors (share of the parent's median) per end-to-end
#: metric; ``--aa`` raises a bound above its floor when same-code runs
#: differ by more.  The pipeline caps a bound at 0.25.
BOUND_FLOORS = {
    "setup_s": 0.25,
    "log_ns_p50": 0.12,
    "agent_cpu_us_per_event": 0.12,
    "central_cpu_us_per_event": 0.15,
    "central_rss_mib": 0.03,
    "wire_bytes_per_event": 0.005,
    "event_to_row_ms_p50": 0.08,
}
BOUND_CAP = 0.25


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def machine() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- printing ----------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"
    return str(value)


def print_table(title: str, metrics: dict[str, tuple[Any, str]], names: list[str]) -> None:
    print(f"\n{title}")
    for name in names:
        if name in metrics:
            value, unit = metrics[name]
            print(f"  {name:<46} {_fmt(value):>12} {unit}")


def print_stage_table(metrics: dict[str, tuple[Any, str]], pooled: bool) -> None:
    """Host and central CPU per event, split into replayed stages plus the
    residual that makes each column add up to the live figure."""

    def us(name: str, scale: float = 1.0) -> Optional[float]:
        value = metrics.get(name, (None, ""))[0]
        return None if value is None else value * scale

    host = [
        ("loadgen: build payloads", us("loadgen.gen_us_per_event")),
        ("core.agent: log()", us("core.agent.log_ns", 1e-3)),
        ("core.agent: flush()", us("core.agent.flush_ns_per_event", 1e-3)),
        ("core.events: encode", us("core.events.encode_ns_per_event", 1e-3)),
        ("live.transport: residual", us("live.transport.residual_us_per_event")),
    ]
    central = [
        # The pool's parent never decodes; its workers do, inside their CPU.
        ("core.events: decode", None if pooled else us("core.events.decode_ns_per_event", 1e-3)),
        ("core.central: ingest", us("core.central.ingest_ns_per_event", 1e-3)),
        ("core.central.pool: worker cpu", us("core.central.pool.worker_cpu_ns_per_event", 1e-3)),
        ("core.central: close", us("core.central.close_ns_per_event", 1e-3)),
        ("live.server: residual", us("live.server.residual_us_per_event")),
    ]
    for title, rows, total in (
        ("host CPU us per logged event", host, us("agent_cpu_us_per_event")),
        ("central CPU us per received event", central,
         us("live.server.cpu_us_per_received_event")),
    ):
        print(f"\nstage table — {title} (live total {_fmt(total)})")
        for label, value in rows:
            if value is not None:
                share = f"{value / total:6.1%}" if total else ""
                print(f"  {label:<34} {_fmt(value):>10}  {share}")


# -- one workload in this process -------------------------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides dict collision chains; pin it for repeatability.
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from live import run_live

    workload = WORKLOADS[args.workload]
    spec = load_spec()
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    info = machine()
    print(
        f"workload {workload.name} seed {args.seed}: {workload.rate} ev/s open loop, "
        f"{args.seconds:g} s measured; nproc {info['nproc']} "
        f"({info['usable_cpus']} usable), Python {info['python']}, {info['platform']}"
    )
    swept = sweep_orphans()
    if swept:
        print(f"killed {swept} process(es) an earlier run left behind", file=sys.stderr)

    live = run_live(
        workload, args.seed, args.seconds,
        # setup_s is the median of several set-ups; a traced or smoke run
        # does not report it and sets up once.
        setups=1 if (args.trace or args.smoke) else 3,
    )
    metrics = dict(live["metrics"])
    problems = list(live["problems"])
    if args.trace:
        from replay import run_replay

        replayed = run_replay(workload, args.seed, args.seconds, live)
        metrics.update(replayed["metrics"])
        problems += replayed["problems"]

    print_table("end-to-end", metrics, e2e_names + ["event_to_row_samples"])
    print_table("per layer", metrics, layer_names)
    if args.trace:
        print_stage_table(metrics, pooled=bool(workload.scrubd_args))
        print(f"spans: {replayed.get('spans_file')}")
    print(f"\nops_attempted {live['attempted']}  ops_failed {live['failed']}")
    if live["unsteady"]:
        print("unsteady: more than 20% of chunks started late")

    if problems:
        for problem in problems:
            print(f"WRONG: {problem}", file=sys.stderr)
        return 1
    print(
        "live-metrics: "
        + json.dumps({k: v[0] for k, v in live["metrics"].items()}, sort_keys=True)
    )
    emit = layer_names if args.trace else e2e_names
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": live["attempted"],
                "failed": live["failed"],
                "metrics": {
                    name: {"value": metrics.get(name, (None, ""))[0], "unit": units[name]}
                    for name in emit
                },
            }
        )
    )
    return 0


# -- several workloads, each in a fresh process ------------------------------------------


def run_child(
    workload: str, seed: int, args: argparse.Namespace, echo: bool = True
) -> Optional[dict[str, Any]]:
    """One ``--workload`` invocation; returns its parsed output lines
    (``{"result": ..., "live": ...}``) or None if it failed."""
    command = [
        sys.executable, str(HERE / "bench.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(command, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        # Let the child tear its scrubd down before we go.
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
        raise
    if echo:
        sys.stdout.write(out)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    live = next((l for l in lines if l.startswith("live-metrics: ")), None)
    return {
        "result": json.loads(lines[-1]),
        "live": json.loads(live.split(": ", 1)[1]) if live else {},
    }


def run_all(args: argparse.Namespace) -> int:
    failed = []
    rows = {}
    for name in WORKLOADS:
        out = run_child(name, args.seed, args)
        if out is None:
            failed.append(name)
        else:
            rows[name] = out["result"]["metrics"]
    if rows:
        names = list(next(iter(rows.values())))
        print("\nsummary (" + ("per layer" if args.trace else "end to end") + ")")
        print(f"  {'metric':<46}" + "".join(f"{w:>17}" for w in rows))
        for name in names:
            print(
                f"  {name:<46}"
                + "".join(f"{_fmt(rows[w][name]['value']):>17}" for w in rows)
            )
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


# -- A/A evidence ------------------------------------------------------------------------


def _spread(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def _round_up(x: float) -> float:
    """To three decimals, upwards, so a bound never undercuts its evidence."""
    return math.ceil(x * 1000) / 1000


def run_aa(args: argparse.Namespace) -> int:
    """N interleaved full passes twice (A B A B ...), every run on its own
    seed; writes the evidence and the bounds derived from it."""
    n = args.aa
    runs = []
    for index in range(2 * n):
        label = "AB"[index % 2]
        for name in WORKLOADS:
            seed = args.seed + index
            t0 = time.time()
            out = run_child(name, seed, args, echo=False)
            if out is None:
                print(f"A/A run failed: {name} seed {seed}", file=sys.stderr)
                return 1
            runs.append(
                {
                    "set": label, "pass": index // 2, "workload": name, "seed": seed,
                    "started": t0,
                    "metrics": {k: v["value"] for k, v in out["result"]["metrics"].items()},
                    # The machine beside every run: which differences were its?
                    "machine": {
                        k.removeprefix("loadgen."): v for k, v in out["live"].items()
                        if k.startswith(("loadgen.probe", "loadgen.raw", "loadgen.late"))
                    },
                }
            )
            print(
                f"[{len(runs)}/{2 * n * len(WORKLOADS)}] set {label} {name} seed {seed}: "
                + " ".join(f"{k}={_fmt(v)}" for k, v in runs[-1]["metrics"].items()),
                flush=True,
            )
    summary: dict[str, Any] = {}
    bounds: dict[str, Any] = {}
    notes = []
    for metric, floor in BOUND_FLOORS.items():
        worst_diff = worst_spread = 0.0
        for name in WORKLOADS:
            sets = {
                label: _spread(
                    [r["metrics"][metric] for r in runs
                     if r["set"] == label and r["workload"] == name]
                )
                for label in "AB"
            }
            both = [r["metrics"][metric] for r in runs if r["workload"] == name]
            diff = abs(sets["A"]["median"] - sets["B"]["median"]) / statistics.median(both)
            summary.setdefault(name, {})[metric] = {**sets, "aa_diff": diff}
            worst_diff = max(worst_diff, diff)
            if metric != "setup_s":
                worst_spread = max(worst_spread, sets["A"]["spread"], sets["B"]["spread"])
            if diff > 0.10:
                notes.append(
                    f"{name}/{metric}: A/A medians differ by {diff:.1%} even interleaved"
                )
        wanted = max(floor, 2 * worst_diff, 3 * worst_spread)
        bound = min(BOUND_CAP, _round_up(wanted))
        if wanted > BOUND_CAP:
            notes.append(
                f"{metric}: evidence asks for a bound of {wanted:.3f}; capped at {BOUND_CAP}"
            )
        bounds[metric] = {
            "floor": floor, "max_aa_diff": worst_diff, "max_spread": worst_spread,
            "bound": bound,
        }
    EVIDENCE_PATH.write_text(
        json.dumps(
            {
                "machine": machine(),
                "design": (
                    f"{n} interleaved passes per set (A B A B ...), each pass all "
                    f"workloads, every run a fresh process on its own seed, "
                    f"{args.seconds:g} s measured; bound = min({BOUND_CAP}, max(floor, "
                    "2 x largest A/A median difference, 3 x largest quartile spread)) "
                    "over all workloads; spread = (q3 - q1) / median per set"
                ),
                "bounds": bounds,
                "notes": notes,
                "summary": summary,
                "runs": runs,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"\nwrote {EVIDENCE_PATH}")
    for metric, b in bounds.items():
        print(
            f"  {metric:<28} bound {b['bound']:<6} (floor {b['floor']}, "
            f"A/A diff {b['max_aa_diff']:.3%}, spread {b['max_spread']:.3%})"
        )
    for note in notes:
        print(f"  note: {note}")
    return 0


# -- entry point ---------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: also run the staged replay and report per-layer metrics")
    parser.add_argument("--aa", type=int, metavar="N", default=0,
                        help="run N interleaved passes twice and write aa_evidence.json")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s per workload, one set-up")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "live").is_dir() or not SPEC_PATH.is_file():
        print(f"error: no Scrub source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(load_spec()["run_seconds"])
    if args.aa:
        return run_aa(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
