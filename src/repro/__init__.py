"""repro -- a reproduction of Sohi's Register Update Unit (RUU).

The paper: G. S. Sohi, "Instruction Issue Logic for High-Performance,
Interruptible, Multiple Functional Unit, Pipelined Computers",
UW-Madison CS TR #704, July 1987 (ISCA 1987 with S. Vajapeyam).

The package provides a CRAY-1-flavoured scalar ISA, a golden functional
executor, and seven execution-driven timing engines that differ only in
issue logic:

======================== ===============================================
``SimpleEngine``         in-order blocking issue (Table 1 baseline)
``TomasuloEngine``       per-register tags, distributed stations (§3.1)
``TagUnitEngine``        consolidated tag pool (§3.2.1)
``RSPoolEngine``         merged reservation-station pool (§3.2.2)
``RSTUEngine``           merged stations+tags, Tables 2-3 (§3.2.3)
``RUUEngine``            the contribution: queue-managed RSTU with
                         in-order commit and NI/LI counter tags, three
                         bypass modes, Tables 4-6 (§5, §6)
``SpeculativeRUUEngine`` §7: branch prediction + conditional execution
======================== ===============================================

plus the Smith & Pleszkun precise-interrupt substrates (reorder buffer,
reorder buffer with bypass, history buffer, future file) for the §4
context, the 14 Livermore-loop workloads, and an analysis harness that
regenerates every table in the paper's evaluation.

Quickstart::

    from repro import assemble, RUUEngine, MachineConfig

    program = assemble('''
            A_IMM A0, 5
        loop:
            A_ADDI A0, A0, -1
            BR_NONZERO A0, loop
            HALT
    ''')
    result = RUUEngine(program, MachineConfig(window_size=10)).run()
    print(result.describe())
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "analysis": (
        "ENGINE_FACTORIES", "ParallelRunner", "SimPoint", "check_run",
        "format_sweep_table", "format_table1", "run_suite", "sweep_sizes",
    ),
    "core": (
        "BypassMode", "RUUEngine", "SpeculativeRUUEngine",
        "StaticBTFNPredictor", "TwoBitPredictor",
    ),
    "interrupts": (
        "FutureFileEngine", "HistoryBufferEngine",
        "ReorderBufferBypassEngine", "ReorderBufferEngine",
    ),
    "isa": (
        "A", "B", "Instruction", "Opcode", "Program", "RegBank", "Register",
        "RegisterFile", "S", "T", "assemble", "build_program",
    ),
    "issue": (
        "DispatchStackEngine", "RSPoolEngine", "RSTUEngine", "SimpleEngine",
        "TagUnitEngine", "TomasuloEngine",
    ),
    "machine": (
        "CRAY1_LIKE", "Engine", "InterruptRecord", "MachineConfig", "Memory",
        "SimResult", "aggregate", "speedup",
    ),
    "lint": ("LintReport", "lint_program", "static_critical_path"),
    "trace": ("FunctionalExecutor", "prefix_state", "reference_state"),
    "workloads": ("Workload", "all_loops"),
})
