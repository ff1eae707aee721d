"""Render results in the paper's table formats (plain text).

``format_table1`` reproduces the per-loop statistics table;
``format_sweep_table`` renders Tables 2-6 (size, speedup, issue rate),
optionally side by side with the paper's published column.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..machine.stats import SimResult
from .sweeps import Sweep


def format_table1(
    results: Sequence[SimResult],
    paper: Optional[Dict[str, Tuple[int, int, float]]] = None,
) -> str:
    """The Table 1 layout: instructions, cycles, issue rate per loop."""
    header = (
        f"{'Benchmark':>10s} {'Instructions':>13s} {'Clock Cycles':>13s} "
        f"{'Issue Rate':>11s}"
    )
    if paper is not None:
        header += f" {'Paper Rate':>11s}"
    lines = [header, "-" * len(header)]
    total_instructions = 0
    total_cycles = 0
    for result in results:
        total_instructions += result.instructions
        total_cycles += result.cycles
        line = (
            f"{result.workload:>10s} {result.instructions:13d} "
            f"{result.cycles:13d} {result.issue_rate:11.3f}"
        )
        if paper is not None and result.workload in paper:
            line += f" {paper[result.workload][2]:11.3f}"
        lines.append(line)
    total_rate = total_instructions / total_cycles if total_cycles else 0.0
    total_line = (
        f"{'Total':>10s} {total_instructions:13d} {total_cycles:13d} "
        f"{total_rate:11.3f}"
    )
    if paper is not None:
        paper_total_rate = (
            sum(row[0] for row in paper.values())
            / sum(row[1] for row in paper.values())
        )
        total_line += f" {paper_total_rate:11.3f}"
    lines.append("-" * len(header))
    lines.append(total_line)
    return "\n".join(lines)


def format_sweep_table(
    sweep: Sweep,
    paper: Optional[Dict[int, Tuple[float, float]]] = None,
    title: str = "",
) -> str:
    """The Table 2-6 layout: entries, relative speedup, issue rate."""
    header = f"{'Entries':>8s} {'Speedup':>9s} {'Issue Rate':>11s}"
    if paper is not None:
        header += f" {'Paper Spd':>10s} {'Paper Rate':>11s}"
    lines = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for row in sweep.rows:
        line = f"{row.size:8d} {row.speedup:9.3f} {row.issue_rate:11.3f}"
        if paper is not None and row.size in paper:
            spd, rate = paper[row.size]
            line += f" {spd:10.3f} {rate:11.3f}"
        lines.append(line)
    return "\n".join(lines)
