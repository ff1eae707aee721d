"""Campaign report generator: one Markdown document for a whole run.

``build_report`` runs a configurable campaign -- per-loop baseline
detail (the breakdown the paper omits "for reasons of brevity"),
mechanism comparisons, stall/FU breakdowns, and the Table 2-6 sweeps --
and renders a self-contained Markdown report.  The CLI exposes it as
``python -m repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..machine.config import CRAY1_LIKE, MachineConfig
from ..machine.stats import SimResult, aggregate
from ..workloads.base import Workload
from ..workloads.livermore import all_loops
from . import paper_data
from .sweeps import per_loop_baseline, sweep_sizes


@dataclass
class ReportSpec:
    """What to include in a campaign report."""

    engines: Sequence[str] = (
        "simple", "dispatch-stack", "tomasulo", "rstu",
        "ruu-bypass", "ruu-limited", "ruu-nobypass", "spec-ruu",
    )
    window_size: int = 12
    sweep_engines: Sequence[str] = ("rstu", "ruu-bypass")
    sweep_sizes: Sequence[int] = (3, 6, 10, 20, 30)
    include_per_loop: bool = True
    include_stalls: bool = True


def _md_table(headers: List[str], rows: List[List[object]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def build_report(
    workloads: Optional[Sequence[Workload]] = None,
    spec: Optional[ReportSpec] = None,
    config: Optional[MachineConfig] = None,
) -> str:
    """Run the campaign and render the Markdown report."""
    workloads = list(workloads) if workloads is not None else all_loops()
    spec = spec or ReportSpec()
    base_config = config or CRAY1_LIKE
    engine_config = base_config.with_(window_size=spec.window_size)

    sections: List[str] = []
    sections.append("# RUU reproduction -- campaign report\n")
    sections.append(
        f"*workloads:* {', '.join(w.name for w in workloads)}  \n"
        f"*window/buffer size:* {spec.window_size}  \n"
        f"*engines:* {', '.join(spec.engines)}\n"
    )

    # -- per-loop baseline detail ---------------------------------------
    per_loop: Dict[str, List[SimResult]] = {
        engine: per_loop_baseline(
            workloads, base_config if engine == "simple" else engine_config,
            engine=engine,
        )
        for engine in spec.engines
    }

    if spec.include_per_loop:
        sections.append("## Per-loop issue rates\n")
        headers = ["loop"] + list(spec.engines)
        rows = []
        for index, workload in enumerate(workloads):
            row: List[object] = [workload.name]
            for engine in spec.engines:
                row.append(_fmt(per_loop[engine][index].issue_rate))
            rows.append(row)
        sections.append(_md_table(headers, rows) + "\n")

    # -- aggregate comparison ----------------------------------------------
    sections.append("## Aggregate comparison\n")
    aggregates = {
        engine: aggregate(results) for engine, results in per_loop.items()
    }
    baseline = aggregates[spec.engines[0]]
    rows = []
    for engine, result in aggregates.items():
        rows.append([
            engine,
            result.cycles,
            _fmt(baseline.cycles / result.cycles),
            _fmt(result.issue_rate),
        ])
    sections.append(
        _md_table(["engine", "cycles", "speedup", "issue rate"], rows)
        + "\n"
    )

    # -- stall breakdown ------------------------------------------------------
    if spec.include_stalls:
        sections.append("## Stall breakdown (cycles lost per cause)\n")
        causes = sorted({
            cause
            for result in aggregates.values()
            for cause in result.stalls
        })
        headers = ["engine"] + causes
        rows = []
        for engine, result in aggregates.items():
            rows.append(
                [engine] + [result.stalls.get(cause, 0) for cause in causes]
            )
        sections.append(_md_table(headers, rows) + "\n")

    # -- sweeps ---------------------------------------------------------------
    for engine in spec.sweep_engines:
        sections.append(f"## Window sweep: {engine}\n")
        sweep = sweep_sizes(
            engine, spec.sweep_sizes, workloads=workloads,
            base_config=base_config, baseline=baseline,
        )
        paper_table = {
            "rstu": paper_data.TABLE2_RSTU,
            "ruu-bypass": paper_data.TABLE4_RUU_BYPASS,
            "ruu-nobypass": paper_data.TABLE5_RUU_NOBYPASS,
            "ruu-limited": paper_data.TABLE6_RUU_LIMITED,
        }.get(engine, {})
        headers = ["entries", "speedup", "issue rate", "paper speedup"]
        rows = []
        for row in sweep.rows:
            paper_cell = (
                _fmt(paper_table[row.size][0])
                if row.size in paper_table else "-"
            )
            rows.append([
                row.size, _fmt(row.speedup), _fmt(row.issue_rate),
                paper_cell,
            ])
        sections.append(_md_table(headers, rows) + "\n")

    sections.append(
        "---\n*generated by `repro.analysis.report` "
        "(timestamps omitted for deterministic artifacts)*\n"
    )
    return "\n".join(sections)
