#!/usr/bin/env python3
"""Exhaustive fault-injection campaigns across the Livermore loops.

For each loop, inject a page fault at (a sample of) every distinct data
address it touches; verify at every site that the RUU's interrupt is
precise and that servicing + resuming reaches the fault-free state --
the strongest form of the paper's §5 claim.

Run:  python examples/fault_campaign.py [loop numbers...]
"""

import sys

from repro import MachineConfig
from repro.analysis import fault_injection_campaign
from repro.workloads import LIVERMORE_FACTORIES

CONFIG = MachineConfig(window_size=12)


def main(argv) -> None:
    numbers = [int(arg) for arg in argv[1:]] or [1, 3, 5, 11, 12]
    total_faults = 0
    for number in numbers:
        workload = LIVERMORE_FACTORIES[number]()
        for engine in ("ruu-bypass", "ruu-nobypass"):
            checks = fault_injection_campaign(
                engine, workload, CONFIG, max_sites=25
            )
            faults = sum(1 for check in checks if check.traps)
            failures = [check for check in checks if not check.passed]
            total_faults += faults
            status = "OK" if not failures else "FAILED"
            print(f"  [{engine:>12s}] {workload.name}: {faults} faults "
                  f"across {len(checks)} sites -> {status}")
            assert not failures, failures[0].describe()
    print(
        f"\n{total_faults} faults injected; every one was precise and "
        f"every run resumed to the fault-free final state."
    )


if __name__ == "__main__":
    main(sys.argv)
