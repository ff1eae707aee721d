"""Dynamic dependence analysis: producers, distances, dataflow limits.

The paper's whole argument starts from a measurement: "the main reason
for this sub-optimal performance is data dependencies" (§2.2), and its
§6.2 discussion turns on *dependency distance* (how many instructions
separate a producer from its consumer).  This module makes both notions
first-class:

* :func:`producers` -- the dynamic dataflow DAG of a trace (register RAW
  edges plus memory RAW edges), as each instruction's producer list;
* :func:`dependence_distances` -- the distance histogram behind §6.2:
  short distances are resolved by result-bus snooping, long distances
  are exactly the cases where the no-bypass RUU must wait for the
  commit bus;
* :func:`dataflow_limit` -- the critical-path bound: the minimum cycles
  any machine needs given only true dependencies and functional-unit
  latencies (infinite window, infinite fetch, no structural hazards).
  Engines can then be scored as a fraction of the dataflow limit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isa.opcodes import FUClass
from ..machine.config import CRAY1_LIKE, MachineConfig
from ..trace.trace import Trace


def producers(trace: Trace) -> List[Tuple[int, ...]]:
    """The dynamic dataflow DAG of a trace, indexed by sequence number.

    Entry ``seq`` holds the sequence numbers of the instructions that
    ``seq`` truly depends on: its register producers in source order,
    then the store its load reads from.  A producer reached through two
    sources appears once.  Only true (RAW) dependencies appear -- anti
    and output dependencies are artifacts of register reuse that every
    mechanism in the repository renames away.  A trace numbers its
    entries 0, 1, 2, ... and every producer precedes its consumer, so
    one forward pass builds the list.
    """
    result: List[Tuple[int, ...]] = []
    last_writer: Dict[object, int] = {}
    last_store: Dict[int, int] = {}
    for entry in trace:
        inst = entry.inst
        address = entry.address
        found = [last_writer.get(reg) for reg in inst.sources]
        if inst.is_load and address is not None:
            found.append(last_store.get(address))
        result.append(tuple(dict.fromkeys(
            producer for producer in found if producer is not None
        )))
        if inst.dest is not None:
            last_writer[inst.dest] = entry.seq
        if inst.is_store and address is not None:
            last_store[address] = entry.seq
    return result


def dependence_distances(trace: Trace) -> Counter:
    """Histogram of producer->consumer distances (dynamic instructions).

    Distance 1 means back-to-back dependent instructions; the paper's
    §6.2 example shows why *large* distances hurt the no-bypass RUU
    (the producer has completed -- and can only be read from the commit
    bus -- by the time the consumer issues).
    """
    distances: Counter = Counter()
    for consumer, sources in enumerate(producers(trace)):
        for producer in sources:
            distances[consumer - producer] += 1
    return distances


@dataclass
class DataflowLimit:
    """Critical-path analysis of one trace."""

    trace_length: int
    critical_path_cycles: int
    ideal_ipc: float
    critical_path_nodes: List[int]
    fu_cycles_on_path: Dict[FUClass, int]

    def describe(self) -> str:
        mix = ", ".join(
            f"{fu.value}={cycles}"
            for fu, cycles in sorted(
                self.fu_cycles_on_path.items(), key=lambda kv: -kv[1]
            )
        )
        return (
            f"{self.trace_length} instructions, dataflow critical path "
            f"{self.critical_path_cycles} cycles (ideal IPC "
            f"{self.ideal_ipc:.2f}); path latency by unit: {mix}"
        )


def dataflow_limit(
    trace: Trace, config: Optional[MachineConfig] = None
) -> DataflowLimit:
    """Minimum execution cycles given only true dependencies.

    Every instruction costs its functional-unit latency; an instruction
    may start once all its producers finish.  This ignores issue width,
    window size, the result bus and branches -- it is the bound an
    infinitely wide, perfectly speculative machine could approach, and
    the denominator for "fraction of dataflow limit" scores.
    """
    config = config or CRAY1_LIKE
    latencies = [config.latency(entry.inst.fu) for entry in trace]
    finish: List[int] = []
    best_pred: List[Optional[int]] = []
    for seq, sources in enumerate(producers(trace)):
        start = 0
        pred: Optional[int] = None
        for producer in sources:
            if finish[producer] > start:
                start = finish[producer]
                pred = producer
        finish.append(start + latencies[seq])
        best_pred.append(pred)
    if not finish:
        return DataflowLimit(0, 0, 0.0, [], {})
    tail = max(range(len(finish)), key=finish.__getitem__)
    path: List[int] = []
    cursor: Optional[int] = tail
    while cursor is not None:
        path.append(cursor)
        cursor = best_pred[cursor]
    path.reverse()
    fu_cycles: Dict[FUClass, int] = {}
    for seq in path:
        fu = trace[seq].inst.fu
        fu_cycles[fu] = fu_cycles.get(fu, 0) + latencies[seq]
    critical = finish[tail]
    return DataflowLimit(
        trace_length=len(trace),
        critical_path_cycles=critical,
        ideal_ipc=len(trace) / critical if critical else 0.0,
        critical_path_nodes=path,
        fu_cycles_on_path=fu_cycles,
    )


def distance_summary(trace: Trace, buckets=(1, 2, 4, 8, 16)) -> str:
    """Human-readable dependence-distance distribution."""
    distances = dependence_distances(trace)
    total = sum(distances.values())
    if not total:
        return "no dependencies"
    lines = [f"{total} true dependencies:"]
    previous = 0
    for bound in buckets:
        count = sum(
            n for distance, n in distances.items()
            if previous < distance <= bound
        )
        lines.append(
            f"  distance {previous + 1:>3d}..{bound:<3d}: "
            f"{count:6d} ({count / total:6.1%})"
        )
        previous = bound
    rest = sum(n for d, n in distances.items() if d > previous)
    lines.append(
        f"  distance  > {previous:<3d}: {rest:6d} ({rest / total:6.1%})"
    )
    return "\n".join(lines)
