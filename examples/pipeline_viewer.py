#!/usr/bin/env python3
"""Watch instructions move through each machine's pipeline.

Attaches a trace recorder to three machines, runs the same code, and
renders the classic pipeline diagrams side by side -- the difference
between blocking issue, out-of-order completion, and in-order commit is
directly visible.

Run:  python examples/pipeline_viewer.py
"""

from repro import (
    MachineConfig,
    Memory,
    RUUEngine,
    SimpleEngine,
    assemble,
)
from repro.issue import RSTUEngine
from repro.machine import Timeline
from repro.obs import TraceRecorder

SOURCE = """
    A_IMM A1, 100
    A_IMM A0, 3
loop:
    LOAD_S S1, A1[0]      ; 11-cycle memory load
    F_MUL  S2, S1, S1     ; depends on the load
    F_ADD  S3, S3, S2     ; accumulator chain
    STORE_S A1[50], S2
    A_ADDI A1, A1, 1      ; independent address arithmetic
    A_ADDI A0, A0, -1
    BR_NONZERO A0, loop
    HALT
"""


def show(cls, label, **kwargs) -> None:
    program = assemble(SOURCE)
    memory = Memory()
    memory.write_array(100, [1.5, 2.0, 2.5])
    engine = cls(program, MachineConfig(window_size=10), memory=memory,
                 **kwargs)
    engine.recorder = TraceRecorder()
    result = engine.run()
    timeline = Timeline.of(engine.recorder)
    print(f"=== {label}: {result.cycles} cycles "
          f"(rate {result.issue_rate:.3f}) ===")
    print(timeline.gantt(first=0, last=15, width=68))
    print(timeline.summary())
    print()


def main() -> None:
    show(SimpleEngine, "simple issue (Table 1 baseline)")
    show(RSTUEngine, "RSTU (out-of-order commit; imprecise)")
    show(RUUEngine, "RUU (in-order commit; precise)")
    print(
        "Things to spot: on the simple machine every F_MUL's issue (I)\n"
        "waits for the load; on the RSTU the address arithmetic's C\n"
        "(complete/writeback) happens before older instructions finish\n"
        "-- the imprecision; on the RUU the R (commit) column is\n"
        "strictly diagonal: program order, whatever the C column does."
    )


if __name__ == "__main__":
    main()
