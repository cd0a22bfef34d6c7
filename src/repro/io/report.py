"""Human-readable reports in the spirit of the paper's tables.

Formats analysis results the way section 4.2 and section 6 present them:
per-activity timing tables (offset, jitter, queueing, WCET, response),
per-graph schedulability verdicts, and heuristic comparison rows.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from ..analysis.buffers import BufferReport
from ..analysis.degree import SchedulabilityReport
from ..analysis.timing import ResponseTimes
from ..api.result import timing_table
from ..system import System

__all__ = [
    "format_table",
    "timing_report",
    "timing_rows_report",
    "schedulability_report",
    "comparison_table",
    "sweep_report",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a list of rows as a fixed-width text table."""
    rendered = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rendered)
    return "\n".join(out)


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.2f}"


def timing_report(system: System, rho: ResponseTimes) -> str:
    """Per-activity timing table (like the values of Fig. 4a)."""
    return timing_rows_report(timing_table(rho))


def timing_rows_report(timing: dict) -> str:
    """Per-activity timing table from flattened ``RunResult.timing`` rows.

    The one timing renderer: :func:`timing_report` flattens a rich
    ``ResponseTimes`` into these rows first, and store-served or
    JSON-round-tripped results carry only the rows.  ``None`` values,
    the serialization of diverged/infinite entries, print as ``inf``.
    """
    kind_labels = {"process": "process", "can": "can msg", "ttp": "ttp leg"}

    def _cell(value) -> str:
        return _fmt(float("inf") if value is None else value)

    rows: List[Tuple[object, ...]] = []
    for kind, label in kind_labels.items():
        names = sorted(
            row["name"] for row in timing.values() if row["kind"] == kind
        )
        for name in names:
            row = timing[f"{kind}:{name}"]
            rows.append(
                (label, name, _cell(row["offset"]), _cell(row["jitter"]),
                 _cell(row["queuing"]), _cell(row["duration"]),
                 _cell(row["response"]))
            )
    return format_table(["kind", "name", "O", "J", "w", "C", "r"], rows)


def schedulability_report(
    system: System,
    report: SchedulabilityReport,
    buffers: Optional[BufferReport] = None,
) -> str:
    """Per-graph verdicts plus the buffer summary (section 6 style)."""
    rows = []
    for name in sorted(report.graph_responses):
        graph = system.app.graphs[name]
        response = report.graph_responses[name]
        verdict = "met" if response <= graph.deadline else "MISSED"
        rows.append((name, _fmt(response), _fmt(graph.deadline), verdict))
    text = format_table(["graph", "R_G", "D_G", "deadline"], rows)
    text += (
        f"\n\ndegree of schedulability: {report.degree:.2f} "
        f"({'schedulable' if report.schedulable else 'NOT schedulable'})"
    )
    if buffers is not None:
        text += (
            f"\ntotal buffer need s_total = {buffers.total:.0f} bytes "
            f"(Out_CAN={buffers.out_can:.0f}, Out_TTP={buffers.out_ttp:.0f}, "
            + ", ".join(
                f"Out_{n}={v:.0f}" for n, v in sorted(buffers.out_node.items())
            )
            + ")"
        )
    return text


def comparison_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """A titled comparison table (used by the Fig. 9 benchmark harness)."""
    body = format_table(headers, rows)
    bar = "=" * len(title)
    return f"{title}\n{bar}\n{body}"


def _sweep_params(record: dict) -> str:
    """Compact ``k=v`` identity of one sweep cell's parameters."""
    pairs = sorted(record.get("workload", {}).items())
    pairs += sorted(record.get("options", {}).items())
    return ", ".join(f"{k}={v}" for k, v in pairs)


def sweep_report(report) -> str:
    """Render a :class:`repro.explore.ExploreReport` as text tables.

    One comparison table over all cells (the section-6 heuristics view)
    followed by one table per Pareto front group.  Accepts either the
    report object or its :meth:`to_dict` payload, so serialized reports
    (CI artifacts, stored JSON) render identically.
    """
    data = report.to_dict() if hasattr(report, "to_dict") else report
    rows = []
    for record in data["cells"]:
        metrics = record.get("metrics", {})
        if record.get("error"):
            rows.append([
                record["index"], record["method"], _sweep_params(record),
                "-", "ERROR", "-", "-",
            ])
            continue
        degree = metrics.get("degree")
        buffers = metrics.get("total_buffers")
        rows.append([
            record["index"],
            record["method"],
            _sweep_params(record),
            _fmt(degree) if degree is not None else "-",
            "yes" if metrics.get("schedulable") else "NO",
            f"{buffers:.0f}" if buffers is not None else "-",
            metrics.get("evaluations", "-"),
        ])
    name = data.get("name", "sweep")
    out = [comparison_table(
        f"Sweep {name!r}: {len(data['cells'])} cells "
        "(degree: smaller is better; <= 0 schedulable)",
        ["cell", "method", "parameters", "degree", "schedulable",
         "s_total [B]", "evals"],
        rows,
    )]
    for front in data.get("fronts", []):
        group = front.get("group") or {}
        label = ", ".join(f"{k}={v}" for k, v in group.items())
        title = "Pareto front" + (f" [{label}]" if label else "")
        axes = front["axes"]
        out.append(comparison_table(
            title,
            ["cell", "method", *axes],
            [
                [entry["index"], entry["method"],
                 *(_fmt(v) for v in entry["point"])]
                for entry in front["cells"]
            ],
        ))
    errors = [r for r in data["cells"] if r.get("error")]
    for record in errors:
        out.append(
            f"cell {record['index']} ({record['method']}): "
            f"error: {record['error']}"
        )
    return "\n\n".join(out)
