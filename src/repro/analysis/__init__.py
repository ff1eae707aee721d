"""Sweep harness, paper reference data, table rendering, shape metrics."""

from . import paper_data
from .cache import ResultCache, cache_key
from .drill import DrillPoint, DrillReport, restart_drill
from .parallel import (
    FleetError,
    FleetReport,
    ParallelRunner,
    PointFailure,
    SimPoint,
    run_point,
)
from .depgraph import (
    DataflowLimit,
    build_dependence_graph,
    dataflow_limit,
    dependence_distances,
    distance_summary,
)
from .export import (
    ascii_chart,
    result_to_dict,
    results_to_json,
    sweep_to_csv,
    sweep_to_rows,
)
from .shape import (
    monotonic_fraction,
    normalized_curve,
    ordering_holds,
    saturation_size,
    shape_report,
    spearman,
)
from .sweeps import (
    ENGINE_FACTORIES,
    Sweep,
    SweepRow,
    per_loop_baseline,
    run_suite,
    sweep_sizes,
)
from .report import ReportSpec, build_report
from .tables import format_comparison, format_sweep_table, format_table1
from .verify import (
    VerificationFailure,
    VerificationReport,
    verify_all,
    verify_engine,
)

__all__ = [
    "DataflowLimit",
    "DrillPoint",
    "DrillReport",
    "ENGINE_FACTORIES",
    "FleetError",
    "FleetReport",
    "ParallelRunner",
    "PointFailure",
    "restart_drill",
    "ReportSpec",
    "ResultCache",
    "SimPoint",
    "Sweep",
    "SweepRow",
    "build_report",
    "cache_key",
    "run_point",
    "ascii_chart",
    "build_dependence_graph",
    "dataflow_limit",
    "dependence_distances",
    "distance_summary",
    "format_comparison",
    "format_sweep_table",
    "format_table1",
    "monotonic_fraction",
    "normalized_curve",
    "ordering_holds",
    "paper_data",
    "per_loop_baseline",
    "result_to_dict",
    "results_to_json",
    "run_suite",
    "saturation_size",
    "shape_report",
    "spearman",
    "sweep_sizes",
    "sweep_to_csv",
    "sweep_to_rows",
    "VerificationFailure",
    "VerificationReport",
    "verify_all",
    "verify_engine",
]
