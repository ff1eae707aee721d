"""Shared helpers for the test suite (importable, unlike conftest)."""

from __future__ import annotations

from repro.analysis import ENGINE_FACTORIES
from repro.machine import CRAY1_LIKE
from repro.machine.invariants import InvariantChecker
from repro.workloads.generator import GeneratorSpec, generate_workload


def run_and_check(builder, workload, golden_state, config=None):
    """Run an engine on a workload and assert architectural equivalence.

    Returns the SimResult for further assertions.
    """
    memory = workload.make_memory()
    engine = builder(workload.program, config or CRAY1_LIKE, memory)
    result = engine.run()
    assert engine.interrupt_record is None, (
        f"{engine.name} trapped unexpectedly on {workload.name}: "
        f"{engine.interrupt_record.describe()}"
    )
    reg_diff = engine.regs.diff(golden_state.regs)
    assert not reg_diff, (
        f"{engine.name} register mismatch on {workload.name}: {reg_diff}"
    )
    mem_diff = memory.diff(golden_state.memory)
    assert not mem_diff, (
        f"{engine.name} memory mismatch on {workload.name}: {mem_diff}"
    )
    assert result.instructions == golden_state.executed, (
        f"{engine.name} retired {result.instructions} instructions on "
        f"{workload.name}, golden executed {golden_state.executed}"
    )
    return result


def run_checked(engine, max_cycles=None):
    """Attach an :class:`InvariantChecker`, run, detach; returns
    ``(result, checker)``."""
    checker = InvariantChecker.attach(engine)
    try:
        return engine.run(max_cycles), checker
    finally:
        checker.detach()


def builder_for(name):
    return ENGINE_FACTORIES[name]


def generated_programs(seed):
    """The two generated programs of perfbench's ``zoo`` workload."""
    return [
        generate_workload(GeneratorSpec(
            streams=2, memory_fraction=0.5, working_set=4, branch_every=0,
            iterations=8, body_ops=16, seed=seed,
        )),
        generate_workload(GeneratorSpec(
            streams=3, memory_fraction=0.25, working_set=64,
            branch_every=3, iterations=8, body_ops=16, seed=seed + 1,
        )),
    ]
