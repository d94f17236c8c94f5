"""Operator KPI reports: recorded runs → congestion/SLO/probe tables.

The warehouse holds rollups and the trace holds events; an operator
wants *answers*: which links are congested, which tenants are getting
their SLOs, what failover (drift → re-plan) actually looked like, and
what continuous gauging costs.  This module closes that gap in two
steps, mirroring the sweep runner's JSON + markdown report shape:

1. :func:`write_run` serializes a finished (or mid-flight) service —
   summary, per-job outcomes, every rollup, the event trace — into one
   JSON *recorded-run* file (``wanify serve --record run.json``);
2. :class:`KpiReport` (via ``wanify report --run run.json``) turns a
   recorded run into the four operator tables, rendered as markdown
   and JSON, with ``--trace`` reconstructing the event timeline.

Keeping the two steps separate means reports are reproducible after
the fact: the recorded run is the artifact, and re-running ``report``
against it is free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro.runtime.observability.trace import TraceEvent, render_timeline
from repro.runtime.observability.warehouse import (
    GRAINS,
    THRESHOLD_PCTS,
    RollupRow,
    merge_link_rollups,
)
from repro.runtime.scheduling.slo import deadline_met, deadline_tally, tenant_of

if TYPE_CHECKING:
    from repro.runtime.service import PipelineService

#: Version stamp written into recorded-run files.
RUN_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------


def snapshot_run(service: "PipelineService") -> dict[str, Any]:
    """Everything a KPI report needs, as one JSON-ready mapping.

    Requires the service's observability hub (``observability=True``,
    the default) — without it there is no warehouse to report over.
    """
    hub = service.hub
    if hub is None:
        raise ValueError(
            "service has no observability hub "
            "(built with observability=False)"
        )
    summary = service.summary()
    jobs = []
    for ticket in service.scheduler.completed:
        met = deadline_met(ticket)
        jobs.append(
            {
                "name": ticket.job.name,
                "tenant": tenant_of(ticket),
                "submitted_s": ticket.submitted_s,
                "wait_s": ticket.wait_s,
                "jct_s": ticket.jct_s,
                "deadline_s": ticket.deadline_s,
                "met": met,
                "preemptions": ticket.preemptions,
            }
        )
    return {
        "format_version": RUN_FORMAT_VERSION,
        "meta": {
            "regions": list(service.config.regions),
            "scenario": service.config.scenario,
            "variant": service.config.variant,
            "scheduler": summary.scheduler,
            "seed": service.config.seed,
            "sim_time_s": service.sim.now,
        },
        "summary": summary.to_row(),
        "jobs": jobs,
        "link_rollups": [
            row.to_json()
            for grain in GRAINS
            for row in hub.log.rollup(grain, by="link")
        ],
        "region_rollups": [
            row.to_json()
            for grain in GRAINS
            for row in hub.log.rollup(grain, by="region")
        ],
        "events": [event.to_json() for event in hub.trace.events()],
        "events_dropped": hub.trace.dropped,
    }


def write_run(
    service: "PipelineService", path: Union[str, Path]
) -> Path:
    """Record a service run to ``path`` (JSON); returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot_run(service), indent=2) + "\n")
    return path


@dataclass
class RecordedRun:
    """A recorded run loaded back from disk."""

    meta: dict[str, Any]
    summary: dict[str, float]
    jobs: list[dict[str, Any]]
    link_rollups: list[RollupRow]
    region_rollups: list[RollupRow]
    events: list[TraceEvent]
    events_dropped: int = 0

    def link_rollups_at(self, grain: str) -> list[RollupRow]:
        """The link-level rollup rows of one grain."""
        return [row for row in self.link_rollups if row.grain == grain]

    def timeline(self) -> str:
        """The printable event timeline of this run."""
        return render_timeline(self.events)


#: JSON type names, for recorded-run error messages.
_JSON_KIND = {
    dict: "object", list: "array", str: "string", bool: "boolean",
    int: "number", float: "number", type(None): "null",
}


def load_run(path: Union[str, Path]) -> RecordedRun:
    """Parse a recorded-run file written by :func:`write_run`.

    A file that is not a recorded run — not a JSON object, a section of
    the wrong JSON type, a row missing a field — raises
    :class:`ValueError` naming the bad section.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(
            f"expected a JSON object, got a JSON {_JSON_KIND[type(data)]}"
        )
    version = data.get("format_version")
    if version != RUN_FORMAT_VERSION:
        raise ValueError(
            f"unsupported recorded-run format {version!r} in {path} "
            f"(expected {RUN_FORMAT_VERSION})"
        )

    def section(name: str, default: Any, parse: Callable[[Any], Any]) -> Any:
        raw = data.get(name, default)
        try:
            if type(raw) is not type(default):
                raise TypeError(
                    f"expected a JSON {_JSON_KIND[type(default)]}, "
                    f"got a JSON {_JSON_KIND[type(raw)]}"
                )
            if isinstance(raw, list):
                for row in raw:
                    if not isinstance(row, dict):
                        raise TypeError(
                            f"expected rows of JSON objects, "
                            f"got a JSON {_JSON_KIND[type(row)]}"
                        )
            return parse(raw)
        except KeyError as exc:
            raise ValueError(
                f"section {name!r}: a row lacks field {exc}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"section {name!r}: {exc}") from None

    def rollups(rows: list) -> list[RollupRow]:
        return [RollupRow.from_json(row) for row in rows]

    return RecordedRun(
        meta=section("meta", {}, dict),
        summary=section("summary", {}, dict),
        jobs=section("jobs", [], list),
        link_rollups=section("link_rollups", [], rollups),
        region_rollups=section("region_rollups", [], rollups),
        events=section(
            "events", [],
            lambda rows: [TraceEvent.from_json(row) for row in rows],
        ),
        events_dropped=section("events_dropped", 0, int),
    )


# ----------------------------------------------------------------------
# The KPI layer
# ----------------------------------------------------------------------


@dataclass
class KpiReport:
    """The four operator tables over one recorded run.

    ``congestion`` ranks links by cumulative time above 80 % of
    capacity; ``tenants`` aggregates SLO attainment per tenant;
    ``failover`` summarizes the drift → re-plan loop's quality;
    ``probe_cost`` accounts what continuous gauging cost, per re-plan.
    """

    meta: dict[str, Any] = field(default_factory=dict)
    congestion: list[dict[str, Any]] = field(default_factory=list)
    tenants: list[dict[str, Any]] = field(default_factory=list)
    failover: dict[str, float] = field(default_factory=dict)
    probe_cost: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_run(cls, run: RecordedRun) -> "KpiReport":
        """Compute every KPI table from a recorded run."""
        summary = run.summary
        merged = merge_link_rollups(run.link_rollups_at("1m"))
        congestion = []
        for link in sorted(
            merged,
            key=lambda name: (-merged[name]["above_80_s"], name),
        ):
            totals = merged[link]
            # Hot-spots only: a link that never carried traffic has
            # nothing to report (56 idle rows would drown the table).
            if totals["max_mbps"] <= 0.0:
                continue
            congestion.append(
                {
                    "link": link,
                    "capacity_mbps": totals["capacity_mbps"],
                    "p95_mbps": totals["p95_mbps"],
                    "max_mbps": totals["max_mbps"],
                    **{
                        f"above_{pct}_s": totals[f"above_{pct}_s"]
                        for pct in THRESHOLD_PCTS
                    },
                    "above_80_continuous_s": totals[
                        "above_80_continuous_s"
                    ],
                    "flaps": totals["flaps"],
                    "availability_pct": totals["availability_pct"],
                }
            )

        by_tenant: dict[str, list[dict[str, Any]]] = {}
        for job in run.jobs:
            by_tenant.setdefault(str(job["tenant"]), []).append(job)
        tenants = []
        for tenant in sorted(by_tenant):
            jobs = by_tenant[tenant]
            attained, missed, attainment = deadline_tally(j["met"] for j in jobs)
            tenants.append(
                {
                    "tenant": tenant,
                    "jobs": len(jobs),
                    "slo_attained": attained,
                    "slo_missed": missed,
                    "slo_attainment": attainment,
                    "mean_jct_s": (
                        sum(j["jct_s"] for j in jobs) / len(jobs)
                    ),
                    "mean_wait_s": (
                        sum(j["wait_s"] for j in jobs) / len(jobs)
                    ),
                    "preemptions": sum(j["preemptions"] for j in jobs),
                }
            )

        replans = summary.get("replans", 0.0)
        flaps_total = sum(row["flaps"] for row in congestion)
        availability = (
            min(row["availability_pct"] for row in congestion)
            if congestion
            else 100.0
        )
        failover = {
            "drift_events": float(
                sum(1 for e in run.events if e.kind == "drift")
            ),
            "replans": replans,
            "preemptions": summary.get("preemptions", 0.0),
            "migrations": summary.get("migrations", 0.0),
            "flaps_total": float(flaps_total),
            "min_link_availability_pct": availability,
            "replan_cost_usd": summary.get("replan_cost_usd", 0.0),
        }

        probe_cost = {
            "probe_transfers": summary.get("probe_transfers", 0.0),
            "probe_gb": summary.get("probe_gb", 0.0),
            "probe_cost_usd": summary.get("probe_cost_usd", 0.0),
            "replans": replans,
            "replan_cost_usd": summary.get("replan_cost_usd", 0.0),
            "cost_per_replan_usd": (
                summary.get("replan_cost_usd", 0.0) / replans
                if replans
                else 0.0
            ),
            "replan_cost_share": (
                summary.get("replan_cost_usd", 0.0)
                / summary.get("probe_cost_usd", 0.0)
                if summary.get("probe_cost_usd", 0.0)
                else 0.0
            ),
        }
        return cls(
            meta=dict(run.meta),
            congestion=congestion,
            tenants=tenants,
            failover=failover,
            probe_cost=probe_cost,
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-ready representation of every table."""
        return {
            "meta": self.meta,
            "congestion": self.congestion,
            "tenants": self.tenants,
            "failover": self.failover,
            "probe_cost": self.probe_cost,
        }

    def render_markdown(self) -> str:
        """All four tables as GitHub-flavored markdown."""
        meta = self.meta
        header = (
            f"# KPI report — scenario {meta.get('scenario')!r}, "
            f"variant {meta.get('variant')!r}, "
            f"scheduler {meta.get('scheduler')!r} "
            f"(seed {meta.get('seed')})"
        )
        parts = [header, ""]
        parts.append("## Congestion hot-spots (links by time ≥ 80% capacity)")
        parts.append("")
        parts.append(
            _table(
                (
                    "link",
                    "capacity_mbps",
                    "p95_mbps",
                    "above_70_s",
                    "above_80_s",
                    "above_90_s",
                    "above_80_continuous_s",
                    "flaps",
                    "availability_pct",
                ),
                self.congestion,
            )
        )
        parts.append("## SLO attainment by tenant")
        parts.append("")
        parts.append(
            _table(
                (
                    "tenant",
                    "jobs",
                    "slo_attained",
                    "slo_missed",
                    "slo_attainment",
                    "mean_jct_s",
                    "mean_wait_s",
                    "preemptions",
                ),
                self.tenants,
            )
        )
        parts.append("## Failover quality")
        parts.append("")
        parts.append(_table(tuple(self.failover), [self.failover]))
        parts.append("## Probe cost per re-plan")
        parts.append("")
        parts.append(_table(tuple(self.probe_cost), [self.probe_cost]))
        return "\n".join(parts)


def _format(value: Any) -> str:
    if isinstance(value, float):
        if value != 0.0 and abs(value) < 0.01:
            return f"{value:.4f}"
        return f"{value:.2f}" if abs(value) < 1000 else f"{value:.0f}"
    return str(value)


def _table(columns: tuple[str, ...], rows: list[dict[str, Any]]) -> str:
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    if not rows:
        lines.append(
            "| " + " | ".join("—" for _ in columns) + " |"
        )
    for row in rows:
        lines.append(
            "| "
            + " | ".join(_format(row.get(col, "")) for col in columns)
            + " |"
        )
    lines.append("")
    return "\n".join(lines)


def write_kpi_report(
    report: KpiReport,
    output: Union[str, Path],
    timeline: Optional[str] = None,
) -> tuple[Path, Path]:
    """Write ``kpi.json`` and ``kpi.md`` under ``output``.

    ``timeline`` (when given) is appended to the markdown as a fenced
    block — the ``wanify report --trace`` artifact.
    """
    directory = Path(output)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / "kpi.json"
    md_path = directory / "kpi.md"
    json_path.write_text(json.dumps(report.to_json(), indent=2) + "\n")
    markdown = report.render_markdown()
    if timeline is not None:
        markdown += "\n## Event timeline\n\n```\n" + timeline + "```\n"
    md_path.write_text(markdown)
    return json_path, md_path
