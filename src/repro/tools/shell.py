"""An interactive Scrub shell over a live simulated platform.

Runs one of the ad-platform workload scenarios on the simulated cluster
and gives the troubleshooter a REPL: type a Scrub query, the simulation
advances through the query's span, and the windows print as they would
arrive.  This is the closest experience to the production tool the
paper describes — queries against a system that is serving traffic
*right now*.

Usage::

    python -m repro.tools.shell                # spam scenario, interactive
    python -m repro.tools.shell --scenario exclusions
    echo 'select COUNT(*) from bid duration 30s;' | python -m repro.tools.shell

Shell commands (anything else is parsed as a Scrub query):

    \\events            list event types and their fields
    \\hosts             list hosts, services, datacenters
    \\fleet             (live mode) membership with last-seen age, epoch,
                       armed-query costs and quarantine counts
    \\queries           list running queries
    \\rates             (live mode) closed-loop sampling controllers:
                       applied rates, rate version, achieved vs target CI
    \\pool              (live mode) shard-pool health: transport, respawns,
                       per-worker ring depth/high-water/spills
    \\run <seconds>     advance virtual time without a query
    \\csv               print the last result set as CSV
    \\json              print the last result set as JSON
    \\help              this text
    \\quit              exit

With ``--connect HOST:PORT`` the shell attaches to a running ``scrubd``
daemon (see ``repro.live``) instead of a simulation: queries run against
the live agents registered there, in wall-clock time.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Optional, TextIO

from ..adplatform import (
    Scenario,
    ab_test_scenario,
    cannibalization_scenario,
    exclusion_scenario,
    frequency_cap_scenario,
    new_exchange_scenario,
    spam_scenario,
)
from ..core.central.results import ResultSet
from ..core.query.errors import ScrubError

__all__ = ["LiveShell", "ScrubShell", "SCENARIOS", "main"]

SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "spam": lambda: spam_scenario(users=300, pageview_rate=10.0),
    "new-exchange": lambda: new_exchange_scenario(activation_time=60.0),
    "ab-test": lambda: ab_test_scenario(),
    "exclusions": lambda: exclusion_scenario(),
    "cannibalization": lambda: cannibalization_scenario(),
    "frequency-cap": lambda: frequency_cap_scenario(),
}

#: Traffic keeps flowing this long; queries outliving it see silence.
TRAFFIC_HORIZON = 3600.0


class ScrubShell:
    """Line-oriented front end over a running scenario."""

    def __init__(
        self,
        scenario: Scenario,
        out: TextIO = sys.stdout,
    ) -> None:
        self.scenario = scenario
        self.cluster = scenario.cluster
        self.out = out
        self.last_results: Optional[ResultSet] = None
        scenario.start(until=TRAFFIC_HORIZON)
        # Let the platform warm up so first queries see steady traffic.
        self.cluster.run_for(2.0)

    # -- output ---------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    # -- command dispatch ----------------------------------------------------------

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the shell should exit."""
        line = line.strip()
        if not line or line.startswith("--"):
            return True
        if line.startswith("\\"):
            return self._command(line)
        self._query(line)
        return True

    def _command(self, line: str) -> bool:
        parts = line.split()
        cmd, args = parts[0], parts[1:]
        if cmd in ("\\quit", "\\q", "\\exit"):
            return False
        if cmd == "\\help":
            self._print(__doc__ or "")
        elif cmd == "\\events":
            for schema in self.cluster.registry:
                fields = ", ".join(
                    f"{f.name}:{f.ftype.value}" for f in schema
                )
                self._print(f"  {schema.name}({fields})")
        elif cmd == "\\hosts":
            for host in self.cluster.hosts():
                services = ",".join(sorted(host.services)) or "-"
                self._print(
                    f"  {host.name:28s} {host.datacenter:8s} {services}"
                )
        elif cmd == "\\queries":
            running = self.cluster.server.running_query_ids
            self._print(f"  {len(running)} running: {list(running)}")
        elif cmd == "\\run":
            seconds = float(args[0]) if args else 10.0
            self.cluster.run_for(seconds)
            self._print(f"  t = {self.cluster.now:.1f}s")
        elif cmd == "\\csv":
            if self.last_results is None:
                self._print("  no results yet")
            else:
                self._print(self.last_results.to_csv().rstrip())
        elif cmd == "\\json":
            if self.last_results is None:
                self._print("  no results yet")
            else:
                self._print(self.last_results.to_json(indent=2))
        else:
            self._print(f"  unknown command {cmd}; \\help lists commands")
        return True

    def _query(self, text: str) -> None:
        try:
            handle = self.cluster.submit(text)
        except ScrubError as exc:
            self._print(f"  error: {exc}")
            return
        span = handle.expires_at - handle.activates_at
        self._print(
            f"  {handle.query_id}: installed on "
            f"{len(handle.targeted_hosts)} host(s), span {span:g}s — running..."
        )
        margin = self.cluster.server.plane.drain_margin + 2.0
        self.cluster.run_until(handle.expires_at + margin)
        results = self.cluster.server.finish(handle.query_id)
        self.last_results = results
        self._print(results.pretty())
        if results.total_host_dropped:
            self._print(f"  ! {results.total_host_dropped} events dropped on hosts")
        for window in results.windows:
            for name, est in window.estimates.items():
                self._print(
                    f"  ~ [{window.window_start:g},{window.window_end:g}) "
                    f"{name} = {est}"
                )

    # -- loop ------------------------------------------------------------------------

    def run(self, source: TextIO = sys.stdin, prompt: bool = True) -> None:
        interactive = prompt and source.isatty()
        while True:
            if interactive:
                self.out.write(f"scrub[t={self.cluster.now:.0f}s]> ")
                self.out.flush()
            line = source.readline()
            if not line:
                break
            if not self.handle(line):
                break


class LiveShell:
    """The same REPL against a running ``scrubd`` daemon (wall-clock)."""

    def __init__(self, address: tuple[str, int], out: TextIO = sys.stdout) -> None:
        from ..live.client import ControlClient

        self.address = address
        self.client = ControlClient(address)
        self.out = out
        self.last_results: Optional[ResultSet] = None
        #: Seconds past a query's span end before collecting (covers the
        #: daemon's window grace and in-flight host flushes).
        self.collect_margin = 3.0

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def handle(self, line: str) -> bool:
        line = line.strip()
        if not line or line.startswith("--"):
            return True
        if line.startswith("\\"):
            return self._command(line)
        self._query(line)
        return True

    def _command(self, line: str) -> bool:
        cmd = line.split()[0]
        if cmd in ("\\quit", "\\q", "\\exit"):
            return False
        if cmd == "\\help":
            self._print(__doc__ or "")
        elif cmd == "\\hosts":
            for host in self._stats().get("hosts", []):
                services = ",".join(host["services"]) or "-"
                self._print(
                    f"  {host['host']:28s} {host['datacenter']:8s} {services}"
                )
        elif cmd == "\\fleet":
            self._fleet()
        elif cmd == "\\rates":
            self._rates()
        elif cmd == "\\pool":
            self._pool()
        elif cmd == "\\queries":
            stats = self._stats()
            self._print(
                f"  running: {stats.get('running', [])}  "
                f"finished: {stats.get('finished', [])}"
            )
            rollouts = stats.get("rollouts", {})
            for query_id, ro in sorted(rollouts.items()):
                line = (
                    f"    {query_id}: rollout {ro['state']} stage {ro['stage']}, "
                    f"{len(ro['installed'])}/{len(ro['order'])} host(s)"
                )
                if ro.get("abort"):
                    abort = ro["abort"]
                    line += (
                        f" — aborted: {abort['reason']} on {abort['host']}"
                    )
                self._print(line)
        elif cmd == "\\csv":
            self._print(
                self.last_results.to_csv().rstrip()
                if self.last_results is not None
                else "  no results yet"
            )
        elif cmd == "\\json":
            self._print(
                self.last_results.to_json(indent=2)
                if self.last_results is not None
                else "  no results yet"
            )
        else:
            self._print(f"  unknown command {cmd}; \\help lists commands")
        return True

    def _stats(self) -> dict:
        return self.client.stats()

    def _fleet(self) -> None:
        """The ``\\fleet`` command: full membership (live, disconnected,
        stale) with last-seen age, epoch, armed-query load and how often
        each host's governor has quarantined a query."""
        stats = self._stats()
        quarantines = stats.get("quarantines", {})
        quarantine_counts: dict[str, int] = {}
        for hosts in quarantines.values():
            for host in hosts:
                quarantine_counts[host] = quarantine_counts.get(host, 0) + 1
        members = stats.get("fleet", [])
        if not members:
            self._print("  fleet is empty (no host has ever registered)")
            return
        self._print(
            f"  {'host':20s} {'state':12s} {'seen':>7s} {'epoch':>20s} "
            f"{'armed':>5s} {'ewma_ns':>9s} {'quar':>4s}"
        )
        for member in members:
            costs = member.get("query_costs", {})
            ewmas = [
                c["ewma_ns"]
                for c in costs.values()
                if isinstance(c, dict) and "ewma_ns" in c
            ]
            peak = f"{max(ewmas):.0f}" if ewmas else "-"
            self._print(
                f"  {member['host']:20s} {member['state']:12s} "
                f"{member['last_seen_age']:6.1f}s {member['epoch']:>20d} "
                f"{len(costs):>5d} {peak:>9s} "
                f"{quarantine_counts.get(member['host'], 0):>4d}"
            )

    def _rates(self) -> None:
        """The ``\\rates`` command: closed-loop sampling controllers —
        applied rates, rate version, achieved vs target CI, and the
        degradation state (docs/SCALING.md §6)."""
        controllers = self._stats().get("controllers", {})
        if not controllers:
            self._print("  no TARGET CI queries running")
            return
        self._print(
            f"  {'query':8s} {'state':12s} {'ver':>4s} {'hosts':>9s} "
            f"{'ev rate':>8s} {'target':>7s} {'achieved':>9s}  note"
        )
        for query_id, ctl in sorted(controllers.items()):
            achieved = ctl.get("achieved_relative_error")
            note = ""
            if ctl.get("frozen_reason"):
                note = f"frozen: {ctl['frozen_reason']}"
            elif ctl.get("rate_limited"):
                limited = ctl["rate_limited"]
                note = (
                    f"{limited['reason']}: achievable "
                    f"{limited['achievable_relative_error']:.1%}"
                )
            hosts = f"{ctl['host_count']}/{ctl['total_hosts']}"
            measured = f"{achieved:.1%}" if achieved is not None else "-"
            self._print(
                f"  {query_id:8s} {ctl['state']:12s} {ctl['version']:>4d} "
                f"{hosts:>9s} {ctl['event_rate']:>8.4f} "
                f"{ctl['target_relative_error']:>6.1%} {measured:>9s}  {note}"
            )

    def _pool(self) -> None:
        """The ``\\pool`` command: shard-pool health and ring transport —
        per-worker ring depth, high-water, spills, and descriptor counts
        (docs/SCALING.md §"Shared-memory ring ingest")."""
        pool = self._stats().get("pool")
        if not pool:
            self._print("  central runs serial (scrubd started without --workers)")
            return
        self._print(
            f"  transport {pool.get('transport', 'pipe')}: "
            f"{pool['alive']}/{pool['workers']} worker(s) alive, "
            f"{pool['respawns']} respawn(s), "
            f"{pool.get('ring_spills', 0)} ring spill(s), "
            f"{pool.get('ring_bytes_in_place', 0)} byte(s) shipped in place"
        )
        rings = pool.get("rings", [])
        if not rings:
            return
        self._print(
            f"  {'shard':>5s} {'gen':>4s} {'mode':>4s} {'depth':>9s} "
            f"{'high':>9s} {'cap':>9s} {'descs':>8s} {'spills':>7s}"
        )
        for ring in rings:
            self._print(
                f"  {ring['shard']:>5d} {ring['generation']:>4d} "
                f"{ring['transport']:>4s} {ring['depth']:>9d} "
                f"{ring['high_water']:>9d} {ring['capacity']:>9d} "
                f"{ring['descriptors']:>8d} {ring['spills']:>7d}"
            )

    def _query(self, text: str) -> None:
        try:
            handle = self.client.submit(text)
        except (ScrubError, ConnectionError, OSError) as exc:
            self._print(f"  error: {exc}")
            return
        span = handle["expires_at"] - handle["activates_at"]
        self._print(
            f"  {handle['query_id']}: installed on "
            f"{len(handle['targeted_hosts'])} host(s), span {span:g}s — running..."
        )
        time.sleep(max(0.0, handle["expires_at"] - time.time()) + self.collect_margin)
        results = self.client.finish(handle["query_id"])
        self.last_results = results
        self._print(results.pretty())
        if results.total_host_dropped:
            self._print(f"  ! {results.total_host_dropped} events dropped on hosts")

    def run(self, source: TextIO = sys.stdin, prompt: bool = True) -> None:
        interactive = prompt and source.isatty()
        while True:
            if interactive:
                self.out.write("scrub[live]> ")
                self.out.flush()
            line = source.readline()
            if not line:
                break
            if not self.handle(line):
                break


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Interactive Scrub shell over a simulated bidding platform "
        "or a live scrubd daemon."
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="spam",
        help="workload to run underneath the shell",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="attach to a running scrubd instead of simulating a cluster",
    )
    args = parser.parse_args(argv)

    if args.connect:
        from ..live.client import parse_address

        address = parse_address(args.connect)
        print(f"connected to scrubd at {address[0]}:{address[1]}; \\help for commands")
        LiveShell(address).run()
        return 0

    scenario = SCENARIOS[args.scenario]()
    print(f"scenario: {scenario.description}")
    print(f"hosts: {len(scenario.cluster.hosts())}; \\help for commands")
    shell = ScrubShell(scenario)
    shell.run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
