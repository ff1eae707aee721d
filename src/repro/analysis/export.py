"""Dependency-free ASCII charts.

Sweeps are rendered as terminal line charts -- the repository is
offline-first, so no plotting library is assumed.
"""

from __future__ import annotations

from typing import Dict, List


def ascii_chart(
    curves: Dict[str, Dict[int, float]],
    width: int = 60,
    height: int = 16,
    title: str = "",
    y_label: str = "speedup",
) -> str:
    """Plot one or more (size -> value) curves as an ASCII chart.

    Each curve gets a distinct glyph; the x axis spans the union of the
    sizes, the y axis the value range (zero-based).
    """
    if not curves:
        return "(no curves)"
    glyphs = "*o+x#@%&"
    xs = sorted({size for curve in curves.values() for size in curve})
    peak = max(
        value for curve in curves.values() for value in curve.values()
    )
    if peak <= 0:
        peak = 1.0
    grid = [[" "] * width for _ in range(height)]
    x_lo, x_hi = xs[0], xs[-1]
    x_span = max(1, x_hi - x_lo)

    def col(x: int) -> int:
        return round((x - x_lo) / x_span * (width - 1))

    def row(value: float) -> int:
        return (height - 1) - round(value / peak * (height - 1))

    for index, (label, curve) in enumerate(sorted(curves.items())):
        glyph = glyphs[index % len(glyphs)]
        for x, value in sorted(curve.items()):
            r, c = row(value), col(x)
            grid[r][c] = glyph

    lines: List[str] = []
    if title:
        lines.append(title)
    for r, cells in enumerate(grid):
        if r == 0:
            axis = f"{peak:6.2f} |"
        elif r == height - 1:
            axis = f"{0.0:6.2f} |"
        else:
            axis = "       |"
        lines.append(axis + "".join(cells))
    lines.append("       +" + "-" * width)
    lines.append(f"        {x_lo:<8d}{y_label:^{width - 16}s}{x_hi:>8d}")
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={label}"
        for i, label in enumerate(sorted(curves))
    )
    lines.append("        " + legend)
    return "\n".join(lines)
