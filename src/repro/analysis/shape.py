"""Shape-fidelity metrics: does a measured curve behave like the paper's?

Absolute speedups depend on the exact compiled code, which we cannot
match (DESIGN.md).  What must reproduce is the *shape*:

* speedup is (near-)monotonically non-decreasing in window size;
* the curve saturates -- the knee falls at a similar size;
* two mechanisms keep the paper's ordering and relative magnitudes.

These metrics are asserted by the benchmark harness and recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence


def monotonic_fraction(curve: Dict[int, float],
                       tolerance: float = 0.01) -> float:
    """Fraction of consecutive steps that do not decrease (within tol)."""
    sizes = sorted(curve)
    if len(sizes) < 2:
        return 1.0
    good = sum(
        1
        for a, b in zip(sizes, sizes[1:])
        if curve[b] >= curve[a] - tolerance
    )
    return good / (len(sizes) - 1)


def saturation_size(curve: Dict[int, float], threshold: float = 0.95) -> int:
    """Smallest size reaching ``threshold`` of the curve's maximum."""
    sizes = sorted(curve)
    peak = max(curve[size] for size in sizes)
    for size in sizes:
        if curve[size] >= threshold * peak:
            return size
    return sizes[-1]


def spearman(curve_a: Dict[int, float], curve_b: Dict[int, float]) -> float:
    """Spearman rank correlation over the sizes both curves share."""
    shared = sorted(set(curve_a) & set(curve_b))
    if len(shared) < 2:
        raise ValueError("need at least two shared sizes")
    ranks_a = _ranks([curve_a[size] for size in shared])
    ranks_b = _ranks([curve_b[size] for size in shared])
    return _pearson(ranks_a, ranks_b)


def _ranks(values: Sequence[float]) -> list:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    for rank, index in enumerate(order):
        ranks[index] = float(rank)
    return ranks


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def normalized_curve(curve: Dict[int, float]) -> Dict[int, float]:
    """Scale a curve so its maximum is 1 (compares shapes, not levels)."""
    peak = max(curve.values())
    return {size: value / peak for size, value in curve.items()}


def shape_report(
    measured: Dict[int, float],
    paper: Dict[int, float],
    label: str,
) -> Dict[str, object]:
    """Summary comparing a measured curve with the paper's."""
    return {
        "label": label,
        "spearman": spearman(measured, paper),
        "monotonic_fraction": monotonic_fraction(measured),
        "saturation_measured": saturation_size(measured),
        "saturation_paper": saturation_size(paper),
        "final_measured": measured[max(measured)],
        "final_paper": paper[max(paper)],
    }


def ordering_holds(
    curves: Dict[str, Dict[int, float]],
    expected_order: Sequence[str],
    at_size: int,
    tolerance: float = 0.02,
) -> bool:
    """Do the mechanisms rank as the paper says at ``at_size``?

    ``expected_order`` lists labels from fastest to slowest.
    """
    values = [curves[label][at_size] for label in expected_order]
    return all(
        a >= b - tolerance for a, b in zip(values, values[1:])
    )
