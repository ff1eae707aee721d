"""Sweep harness, paper reference data, table rendering, shape metrics."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "paper_data": ("paper_data",),
    "cache": ("ResultCache", "cache_key"),
    "parallel": (
        "FleetError", "FleetReport", "ParallelRunner", "PointFailure",
        "SimPoint", "run_point",
    ),
    "depgraph": (
        "DataflowLimit", "dataflow_limit", "dependence_distances",
        "distance_summary", "producers",
    ),
    "export": ("ascii_chart",),
    "shape": (
        "monotonic_fraction", "ordering_holds", "saturation_size",
        "shape_report", "spearman",
    ),
    "sweeps": (
        "ENGINE_FACTORIES", "Sweep", "SweepRow", "per_loop_baseline",
        "run_suite", "sweep_sizes",
    ),
    "report": ("ReportSpec", "build_report"),
    "tables": ("format_sweep_table", "format_table1"),
    "verify": (
        "Check", "check_run", "fault_injection_campaign", "restart_drill",
        "verify_all",
    ),
})
