"""Parameterized synthetic workload generator.

The Livermore kernels are fixed points in the (ILP, memory intensity,
branchiness) space; this generator lets studies move through that space
continuously.  A :class:`GeneratorSpec` chooses:

* ``streams`` -- how many independent dependency chains run in parallel
  (1 = fully serial, more = more instruction-level parallelism);
* ``memory_fraction`` -- the fraction of body operations that touch
  memory (loads/stores over a configurable working set);
* ``working_set`` -- distinct data addresses (small = heavy aliasing
  through the load registers, large = independent traffic);
* ``branch_every`` -- insert a data-dependent forward branch every N
  body operations (0 = straight-line loop body);
* ``iterations`` and ``body_ops`` -- the dynamic size.

Programs are deterministic in the seed, type-safe by construction
(fault-free on every engine), and validated the same way as every other
workload: the engines must reproduce the golden model's state bit for
bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..isa.assembler import assemble
from .base import Workload, memory_from_arrays
from .rng import Generator

#: registers reserved by the loop scaffolding
_COUNTER = "A7"     # loop counter
_TEST = "A0"        # branch-condition staging
_DATA_BASE = "A6"   # working-set base pointer
_SPILL_BASE = "A5"  # spill/output region base

_DATA_REGION = 1000
_OUT_REGION = 5000


@dataclass(frozen=True)
class GeneratorSpec:
    """Knobs for one synthetic workload."""

    streams: int = 2               # 1..3 float chains (S1..S3)
    memory_fraction: float = 0.25  # share of ops that are loads/stores
    working_set: int = 16          # distinct data words
    branch_every: int = 0          # 0 = no inner branches
    iterations: int = 20
    body_ops: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.streams <= 3:
            raise ValueError("streams must be 1..3 (registers S1..S3)")
        if not 0.0 <= self.memory_fraction <= 1.0:
            raise ValueError("memory_fraction must be within [0, 1]")
        if self.working_set < 1:
            raise ValueError("working_set must be positive")
        if self.iterations < 1 or self.body_ops < 1:
            raise ValueError("iterations and body_ops must be positive")

    @property
    def name(self) -> str:
        return (
            f"gen-s{self.streams}-m{int(self.memory_fraction * 100)}"
            f"-w{self.working_set}-b{self.branch_every}-x{self.seed}"
        )


def generate_workload(spec: GeneratorSpec) -> Workload:
    """Build the workload described by ``spec``."""
    rng = random.Random(spec.seed * 7919 + 13)
    data_rng = Generator(spec.seed + 4242)
    data = data_rng.uniform(0.01, 0.1, spec.working_set)

    stream_regs = [f"S{i + 1}" for i in range(spec.streams)]
    scratch = "S4"

    lines: List[str] = [
        f"A_IMM {_DATA_BASE}, {_DATA_REGION}",
        f"A_IMM {_SPILL_BASE}, {_OUT_REGION}",
        "A_IMM A1, 1",
    ]
    for reg in stream_regs:
        lines.append(f"S_IMM {reg}, 1.0")
    lines.append(f"A_IMM {_COUNTER}, {spec.iterations}")
    lines.append("loop:")

    branch_id = 0
    out_slot = 0
    for op_index in range(spec.body_ops):
        reg = stream_regs[op_index % spec.streams]
        if rng.random() < spec.memory_fraction:
            offset = rng.randrange(spec.working_set)
            if rng.random() < 0.5:
                lines.append(f"LOAD_S {scratch}, {_DATA_BASE}[{offset}]")
                lines.append(f"F_ADD {reg}, {reg}, {scratch}")
            else:
                lines.append(f"STORE_S {_DATA_BASE}[{offset}], {reg}")
        else:
            kind = rng.randrange(3)
            if kind == 0:
                # contractive multiply-add: x <- 0.5x + 0.25 stays
                # within [0, 1]-ish whatever the mix does around it
                lines.append(f"S_IMM {scratch}, 0.5")
                lines.append(f"F_MUL {reg}, {reg}, {scratch}")
                lines.append(f"S_IMM {scratch}, 0.25")
                lines.append(f"F_ADD {reg}, {reg}, {scratch}")
            elif kind == 1:
                other = stream_regs[rng.randrange(spec.streams)]
                lines.append(f"F_SUB {reg}, {reg}, {other}")
            else:
                lines.append(f"S_IMM {scratch}, 0.125")
                lines.append(f"F_ADD {reg}, {reg}, {scratch}")
        if spec.branch_every and (op_index + 1) % spec.branch_every == 0:
            label = f"skip{branch_id}"
            branch_id += 1
            # data-dependent but type-safe: test the loop counter parity
            # staged through the logical unit
            lines.append(f"MOV S7, {_COUNTER}")
            lines.append("S_IMM S6, 1")
            lines.append("S_AND S7, S7, S6")
            lines.append(f"MOV {_TEST}, S7")
            lines.append(f"BR_ZERO {_TEST}, {label}")
            lines.append(f"STORE_S {_SPILL_BASE}[{out_slot}], {reg}")
            out_slot += 1
            lines.append(f"{label}:")

    # store each stream's running value once per iteration
    for slot, reg in enumerate(stream_regs):
        lines.append(
            f"STORE_S {_SPILL_BASE}[{100 + slot}], {reg}"
        )
    lines.append(f"A_ADDI {_COUNTER}, {_COUNTER}, -1")
    lines.append(f"MOV {_TEST}, {_COUNTER}")
    lines.append(f"BR_NONZERO {_TEST}, loop")
    lines.append("HALT")

    # All body operations are contractive or bounded-additive, so
    # values never approach the float range and no arithmetic trap can
    # fire -- generated workloads are fault-free on every engine.
    program = assemble("\n".join(lines), spec.name)
    return Workload(
        name=spec.name,
        program=program,
        initial_memory=memory_from_arrays({_DATA_REGION: data}),
        expected_outputs={},  # equivalence vs the golden model instead
        description=(
            f"synthetic: {spec.streams} stream(s), "
            f"{spec.memory_fraction:.0%} memory, "
            f"working set {spec.working_set}, "
            f"branch every {spec.branch_every or 'never'}"
        ),
    )


def ilp_sweep(streams_values=(1, 2, 3), **kwargs) -> List[Workload]:
    """Workloads differing only in available ILP."""
    return [
        generate_workload(GeneratorSpec(streams=streams, **kwargs))
        for streams in streams_values
    ]


def memory_sweep(fractions=(0.0, 0.25, 0.5, 0.75), **kwargs) -> List[Workload]:
    """Workloads differing only in memory intensity."""
    return [
        generate_workload(
            GeneratorSpec(memory_fraction=fraction, **kwargs)
        )
        for fraction in fractions
    ]
