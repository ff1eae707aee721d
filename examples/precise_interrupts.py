#!/usr/bin/env python3
"""Demonstrate the paper's core claim: the RUU makes interrupts precise.

Injects a page fault into a Livermore loop's data and runs it on:

1. the simple baseline (in-order issue, out-of-order completion) --
   the interrupted state does NOT match any sequential prefix;
2. the RSTU (out-of-order issue, out-of-order commit) -- worse;
3. the RUU -- the state is exactly the sequential prefix, and the
   program is *restartable*: service the fault, resume, and the final
   state equals a fault-free run.

Run:  python examples/precise_interrupts.py
"""

from repro import (
    MachineConfig,
    RUUEngine,
    check_run,
    reference_state,
)
from repro.workloads import lll1

CONFIG = MachineConfig(window_size=12)


def main() -> None:
    workload = lll1()
    fault_address = 2005  # y[5] -- read once per loop iteration

    print(f"workload: {workload.name} ({workload.description})")
    print(f"injected page fault at address {fault_address}\n")

    for label, engine in [("simple baseline", "simple"), ("RSTU", "rstu"),
                          ("RUU", "ruu-bypass")]:
        check = check_run(engine, workload, CONFIG, fault_address)
        verdict = "PRECISE" if check.precise else "IMPRECISE"
        print(f"--- {label}: {verdict} ---")
        print(check.describe())
        print()

    # Restartability: the operating-system view.
    print("--- RUU: service the fault and resume ---")
    memory = workload.initial_memory.copy()
    memory.inject_fault(fault_address)
    engine = RUUEngine(workload.program, CONFIG, memory=memory)
    engine.run()
    record = engine.interrupt_record
    print(f"trap taken: {record.describe()}")
    print("servicing: mapping the page and restarting at the trap PC...")
    memory.service_fault(fault_address)
    engine.continue_run()

    clean = reference_state(workload.program, workload.initial_memory)
    assert engine.regs == clean.regs
    assert engine.memory == clean.memory
    failures = workload.validate(engine.memory)
    assert not failures
    print(
        "resumed to completion: final state identical to a fault-free "
        "run, kernel output validated against the NumPy reference."
    )


if __name__ == "__main__":
    main()
