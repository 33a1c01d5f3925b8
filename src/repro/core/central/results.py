"""Query results: rows per tumbling window, and whole-query result sets.

ScrubCentral emits one :class:`WindowResult` each time a tumbling window
closes; a :class:`ResultSet` accumulates them for the query's lifetime
and is what the query server hands back to the troubleshooter.
Completeness metadata (host drops, late events, sampling estimates with
error bounds) rides along with the rows, because Scrub deliberately
trades accuracy for host impact and the user must be able to see by how
much.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from ..approx.sampling_theory import ApproxEstimate

__all__ = ["ResultRow", "WindowCoverage", "WindowResult", "ResultSet"]


@dataclass(frozen=True)
class WindowCoverage:
    """Which targeted hosts actually fed one window — and why the rest
    did not.

    Numbers in a window are silently *partial* whenever a targeted host
    shipped nothing into it; per the degraded-telemetry lesson of the
    Facebook RCA work, that partiality must be flagged, not folded in.
    ``missing`` maps each absent host to its delivery state at window
    close: ``"silent"`` (connected, nothing matched or arrived),
    ``"disconnected"``, ``"lease-expired"``, ``"unreachable"`` (an
    install push failed), ``"never-seen"`` (recovered from the
    journal; the host has not re-attached), ``"stale"`` (silent past
    the fleet age-out threshold; membership no longer counts it live),
    or ``"quarantined"`` (the host's impact governor auto-uninstalled
    the query).

    Three further degradation sources are named explicitly so partial
    numbers are never silently partial:

    * ``shard_gaps`` — central-side loss: a ShardPool worker process
      died or hung while this window was open, so its in-flight slice
      of the window is gone; maps ``"shard-<i>"`` to the supervisor's
      respawn reason.
    * ``shed`` — host-side load shedding: per reporting host, how many
      matched events the impact governor dropped-with-count for this
      window (the estimator widens its bounds by the shed fraction).
    * ``quarantined`` — per host, the structured reason its governor
      auto-uninstalled this query (the host stops reporting for good).
    """

    expected: tuple[str, ...]
    reporting: tuple[str, ...]
    missing: dict[str, str]
    #: Central-side worker-respawn gaps: "shard-<i>" -> reason.
    shard_gaps: dict[str, str] = field(default_factory=dict)
    #: Host -> matched events the governor shed into this window.
    shed: dict[str, int] = field(default_factory=dict)
    #: Host -> structured quarantine reason (governor auto-uninstall).
    quarantined: dict[str, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(
            self.missing or self.shard_gaps or self.shed or self.quarantined
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "expected": list(self.expected),
            "reporting": list(self.reporting),
            "missing": dict(self.missing),
            "shard_gaps": dict(self.shard_gaps),
            "shed": dict(self.shed),
            "quarantined": dict(self.quarantined),
        }


@dataclass(frozen=True)
class ResultRow:
    """One output row: values in SELECT-list order."""

    values: tuple[Any, ...]

    def as_dict(self, columns: tuple[str, ...]) -> dict[str, Any]:
        return dict(zip(columns, self.values))

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class WindowResult:
    """All rows produced for one tumbling window of one query."""

    query_id: str
    window_start: float
    window_end: float
    columns: tuple[str, ...]
    rows: list[ResultRow]
    #: Per-column sampling estimates (global aggregates under sampling only);
    #: key is the output column name.
    estimates: dict[str, ApproxEstimate] = field(default_factory=dict)
    #: Events dropped on hosts (full buffers) attributed to this window's span.
    host_dropped: int = 0
    #: Matched events the hosts' impact governors shed (drop-with-count)
    #: attributed to this window's span.
    host_shed: int = 0
    #: Events that arrived after the window had closed and were discarded.
    late_events: int = 0
    #: Hosts that contributed at least one batch overlapping this window.
    contributing_hosts: int = 0
    #: Per-host delivery accounting (only when the engine was told the
    #: targeted host names); ``None`` means coverage was not tracked.
    coverage: Optional[WindowCoverage] = None

    @property
    def degraded(self) -> bool:
        """True when a targeted host is known to be absent from this window."""
        return self.coverage is not None and self.coverage.degraded

    def as_dicts(self) -> list[dict[str, Any]]:
        return [row.as_dict(self.columns) for row in self.rows]

    def column(self, name: str) -> list[Any]:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; columns are {list(self.columns)}"
            ) from None
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.rows)


@dataclass
class ResultSet:
    """Every window result a query produced, in window order."""

    query_id: str
    columns: tuple[str, ...]
    windows: list[WindowResult] = field(default_factory=list)
    #: Fleet-rollout status attached by scrubd when the query was
    #: submitted with a rollout policy: state, stage, installed hosts,
    #: and — after an auto-abort — the structured abort reason.  ``None``
    #: for queries installed everywhere at once.
    rollout: Optional[dict[str, Any]] = None
    #: Closed-loop sampling-controller status attached by the server for
    #: ``TARGET CI`` queries: controller state (``tracking`` /
    #: ``rate_limited`` / ``frozen``), current rates + rate version,
    #: target vs achieved relative CI, and — when the impact budget
    #: clamped the retune — the structured ``rate_limited`` reason with
    #: the widened achievable bound.  ``None`` for open-loop queries.
    sampling: Optional[dict[str, Any]] = None

    def add(self, window: WindowResult) -> None:
        self.windows.append(window)

    @property
    def rows(self) -> list[ResultRow]:
        return [row for window in self.windows for row in window.rows]

    def as_dicts(self) -> list[dict[str, Any]]:
        """Flatten to dicts, each annotated with its window start."""
        out = []
        for window in self.windows:
            for row in window.rows:
                record = row.as_dict(self.columns)
                record["_window"] = window.window_start
                out.append(record)
        return out

    def column(self, name: str) -> list[Any]:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; columns are {list(self.columns)}"
            ) from None
        return [row[index] for row in self.rows]

    @property
    def total_host_dropped(self) -> int:
        return sum(w.host_dropped for w in self.windows)

    @property
    def total_host_shed(self) -> int:
        return sum(w.host_shed for w in self.windows)

    @property
    def total_late_events(self) -> int:
        return sum(w.late_events for w in self.windows)

    @property
    def degraded_windows(self) -> list[WindowResult]:
        """Windows where at least one targeted host is known absent."""
        return [w for w in self.windows if w.degraded]

    def coverage_summary(self) -> dict[str, Any]:
        """Whole-query delivery health: how many windows were degraded and
        which hosts went missing (host -> windows missed)."""
        missed: dict[str, int] = {}
        gapped: dict[str, int] = {}
        shed: dict[str, int] = {}
        quarantined: dict[str, str] = {}
        for window in self.windows:
            if window.coverage is None:
                continue
            for host in window.coverage.missing:
                missed[host] = missed.get(host, 0) + 1
            for shard in window.coverage.shard_gaps:
                gapped[shard] = gapped.get(shard, 0) + 1
            for host, count in window.coverage.shed.items():
                shed[host] = shed.get(host, 0) + count
            quarantined.update(window.coverage.quarantined)
        return {
            "windows": len(self.windows),
            "degraded_windows": len(self.degraded_windows),
            "hosts_missed": missed,
            "shard_gaps": gapped,
            "hosts_shed": shed,
            "hosts_quarantined": quarantined,
        }

    def __len__(self) -> int:
        return len(self.windows)

    def __iter__(self) -> Iterator[WindowResult]:
        return iter(self.windows)

    def to_json(self, indent: int | None = None) -> str:
        """Serialize all windows to JSON (lists survive; estimates become
        objects carrying the bound plus its variance/sample telemetry)."""
        payload = {
            "query_id": self.query_id,
            "columns": list(self.columns),
            "rollout": self.rollout,
            "sampling": self.sampling,
            "windows": [
                {
                    "start": w.window_start,
                    "end": w.window_end,
                    "rows": [list(_jsonable(v) for v in r.values) for r in w.rows],
                    "estimates": {
                        name: {
                            "estimate": est.estimate,
                            "error_bound": est.error_bound,
                            "confidence": est.confidence,
                            "variance": est.variance,
                            "sampled_machines": est.sampled_machines,
                            "total_machines": est.total_machines,
                            "sample_events": est.sample_events,
                        }
                        for name, est in w.estimates.items()
                    },
                    "host_dropped": w.host_dropped,
                    "host_shed": w.host_shed,
                    "late_events": w.late_events,
                    "coverage": (
                        None if w.coverage is None else w.coverage.as_dict()
                    ),
                }
                for w in self.windows
            ],
        }
        return json.dumps(payload, indent=indent)

    def to_csv(self) -> str:
        """Flatten all windows to CSV with a leading ``window_start`` column."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["window_start", *self.columns])
        for window in self.windows:
            for row in window.rows:
                writer.writerow(
                    [window.window_start]
                    + [_csv_cell(value) for value in row.values]
                )
        return out.getvalue()

    def pretty(self, max_rows: int = 20) -> str:
        """A small fixed-width rendering for examples and debugging."""
        lines = [f"query {self.query_id}: {len(self.windows)} window(s)"]
        if self.rollout is not None:
            stage = self.rollout.get("stage")
            state = self.rollout.get("state")
            installed = self.rollout.get("installed", [])
            lines.append(
                f"   rollout: {state} (stage {stage}, "
                f"{len(installed)} host(s) installed)"
            )
            abort = self.rollout.get("abort")
            if abort:
                lines.append(
                    f"   aborted: {abort.get('reason')} on {abort.get('host')}"
                    f" — {abort.get('detail')}"
                )
        if self.sampling is not None:
            target = self.sampling.get("target_relative_error")
            achieved = self.sampling.get("achieved_relative_error")
            lines.append(
                f"   sampling: {self.sampling.get('state')}"
                f" v{self.sampling.get('version')}"
                f" hosts={self.sampling.get('host_rate', 0.0):g}"
                f" events={self.sampling.get('event_rate', 0.0):g}"
                + (f" target ±{target * 100:g}%" if target is not None else "")
                + (
                    f" achieved ±{achieved * 100:.2g}%"
                    if achieved is not None and achieved == achieved
                    else ""
                )
            )
            limited = self.sampling.get("rate_limited")
            if limited:
                lines.append(
                    f"   rate-limited: {limited.get('reason')}"
                    f" — achievable ±{limited.get('achievable_relative_error', 0.0) * 100:.2g}%"
                )
        for window in self.windows:
            degraded = ""
            if window.degraded:
                assert window.coverage is not None
                parts = []
                if window.coverage.missing:
                    parts.append("missing " + ", ".join(
                        f"{host}[{state}]"
                        for host, state in sorted(window.coverage.missing.items())
                    ))
                if window.coverage.shard_gaps:
                    parts.append("gaps " + ", ".join(
                        sorted(window.coverage.shard_gaps)
                    ))
                if window.coverage.shed:
                    parts.append("shed " + ", ".join(
                        f"{host}:{count}"
                        for host, count in sorted(window.coverage.shed.items())
                    ))
                if window.coverage.quarantined:
                    parts.append("quarantined " + ", ".join(
                        sorted(window.coverage.quarantined)
                    ))
                degraded = "  (degraded: " + "; ".join(parts) + ")"
            lines.append(
                f"-- window [{window.window_start:g}, {window.window_end:g})"
                + (f"  (+{window.late_events} late)" if window.late_events else "")
                + degraded
            )
            header = " | ".join(self.columns)
            lines.append("   " + header)
            for row in window.rows[:max_rows]:
                lines.append(
                    "   " + " | ".join(_fmt(value) for value in row.values)
                )
            if len(window.rows) > max_rows:
                lines.append(f"   ... {len(window.rows) - max_rows} more row(s)")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and (value != value):  # NaN
        return None
    return value


def _csv_cell(value: Any) -> Any:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        # TOP-K results and list fields: a compact JSON cell.
        return json.dumps(_jsonable(value))
    return value
