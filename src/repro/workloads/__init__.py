"""Benchmark workloads: the Livermore loops and synthetic kernels."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("Workload", "memory_from_arrays"),
    "generator": (
        "GeneratorSpec", "generate_workload", "ilp_sweep", "memory_sweep",
    ),
    "suites": ("SIZE_PRESETS", "SUITES", "livermore_suite", "synthetic_suite"),
    "synthetic": (
        "ALL_SYNTHETIC", "branch_heavy", "dependency_chain", "fault_probe",
        "independent_streams", "memory_alias_kernel", "register_pressure",
    ),
    "livermore": (
        "LIVERMORE_FACTORIES", "all_loops", "lll1", "lll2", "lll3", "lll4",
        "lll5", "lll6", "lll7", "lll8", "lll9", "lll10", "lll11", "lll12",
        "lll13", "lll14",
    ),
})
