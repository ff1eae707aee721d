"""Synthetic microkernels for targeted tests and ablations.

Each kernel isolates one behaviour the Livermore loops mix together:

* :func:`dependency_chain` -- a pure serial chain (no ILP at all);
* :func:`independent_streams` -- fully parallel work (ILP bounded only
  by machine resources);
* :func:`memory_alias_kernel` -- loads and stores hammering the same
  addresses (exercises the load registers' forwarding and ordering);
* :func:`branch_heavy` -- data-dependent branch directions (defeats
  static prediction; exercises the speculative RUU's recovery);
* :func:`register_pressure` -- many live destination registers cycling
  through the B/T files (exercises tag allocation and NI/LI counters);
* :func:`fault_probe` -- a kernel with a known faulting-load site, for
  interrupt experiments.
"""

from __future__ import annotations

from ..isa.assembler import assemble
from .base import Workload, memory_from_arrays
from .rng import Generator


def dependency_chain(length: int = 200) -> Workload:
    """``s = (s + y[k]) * z`` -- every operation depends on the last."""
    YB, RES = 1000, 9000
    rng = Generator(100)
    y = rng.uniform(0.01, 0.1, length)
    z = 0.75

    source = f"""
        S_IMM S1, 1.0
        S_IMM S2, {z}
        A_IMM A1, {YB}
        A_IMM A0, {length}
    loop:
        LOAD_S S3, A1[0]
        A_ADDI A1, A1, 1
        A_ADDI A0, A0, -1
        F_ADD  S1, S1, S3
        F_MUL  S1, S1, S2
        BR_NONZERO A0, loop
        A_IMM A2, {RES}
        STORE_S A2[0], S1
        HALT
    """
    acc = 1.0
    for k in range(length):
        acc = (acc + y[k]) * z

    return Workload(
        name="chain",
        program=assemble(source, "chain"),
        initial_memory=memory_from_arrays({YB: y}),
        expected_outputs={"s": (RES, [acc])},
        description="serial dependency chain",
    )


def independent_streams(length: int = 100) -> Workload:
    """Four independent accumulations -- near-perfect ILP."""
    B0, B1, B2, B3, RES = 1000, 2000, 3000, 4000, 9000
    rng = Generator(101)
    data = [rng.uniform(0.01, 0.1, length) for _ in range(4)]

    source = f"""
        S_IMM S1, 0.0
        S_IMM S2, 0.0
        S_IMM S3, 0.0
        S_IMM S4, 0.0
        A_IMM A1, {B0}
        A_IMM A2, {B1}
        A_IMM A3, {B2}
        A_IMM A4, {B3}
        A_IMM A0, {length}
    loop:
        LOAD_S S5, A1[0]
        LOAD_S S6, A2[0]
        LOAD_S S7, A3[0]
        A_ADDI A1, A1, 1
        A_ADDI A2, A2, 1
        A_ADDI A3, A3, 1
        A_ADDI A0, A0, -1
        F_ADD  S1, S1, S5
        F_ADD  S2, S2, S6
        F_ADD  S3, S3, S7
        LOAD_S S5, A4[0]
        A_ADDI A4, A4, 1
        F_ADD  S4, S4, S5
        BR_NONZERO A0, loop
        A_IMM A1, {RES}
        STORE_S A1[0], S1
        STORE_S A1[1], S2
        STORE_S A1[2], S3
        STORE_S A1[3], S4
        HALT
    """
    sums = []
    for stream in data:
        acc = 0.0
        for value in stream:
            acc = acc + value
        sums.append(acc)

    return Workload(
        name="streams",
        program=assemble(source, "streams"),
        initial_memory=memory_from_arrays(
            {B0: data[0], B1: data[1], B2: data[2], B3: data[3]}
        ),
        expected_outputs={"sums": (RES, sums)},
        description="independent parallel streams",
    )


def memory_alias_kernel(iterations: int = 60) -> Workload:
    """Read-modify-write on a tiny working set: every load hits an
    address with a recent pending store (store-to-load forwarding)."""
    BUF, RES = 1000, 9000
    size = 4

    source = f"""
        S_IMM S1, 1.0
        A_IMM A1, {BUF}
        A_IMM A0, {iterations}
    loop:
        LOAD_S S2, A1[0]
        F_ADD  S2, S2, S1
        STORE_S A1[0], S2
        LOAD_S S3, A1[1]
        F_ADD  S3, S3, S2
        STORE_S A1[1], S3
        LOAD_S S4, A1[2]
        F_ADD  S4, S4, S3
        STORE_S A1[2], S4
        LOAD_S S5, A1[3]
        F_ADD  S5, S5, S4
        STORE_S A1[3], S5
        A_ADDI A0, A0, -1
        BR_NONZERO A0, loop
        HALT
    """
    buf = [0.0] * size
    for _ in range(iterations):
        buf[0] = buf[0] + 1.0
        buf[1] = buf[1] + buf[0]
        buf[2] = buf[2] + buf[1]
        buf[3] = buf[3] + buf[2]

    return Workload(
        name="alias",
        program=assemble(source, "alias"),
        initial_memory=memory_from_arrays({BUF: [0.0] * size}),
        expected_outputs={"buf": (BUF, buf)},
        description="same-address load/store traffic",
    )


def branch_heavy(length: int = 120, seed: int = 7) -> Workload:
    """Per-element data-dependent branching: add the element when it is
    'positive-coded' (1), subtract when 0 -- directions look random."""
    FLAGS, VALS, RES = 1000, 2000, 9000
    rng = Generator(seed)
    flags = rng.integers(0, 2, length)
    vals = rng.uniform(0.1, 1.0, length)

    source = f"""
        S_IMM S1, 0.0
        A_IMM A1, {FLAGS}
        A_IMM A2, {VALS}
        A_IMM A7, {length}
    loop:
        LOAD_A A0, A1[0]      ; flag decides the branch direction
        LOAD_S S2, A2[0]
        A_ADDI A1, A1, 1
        A_ADDI A2, A2, 1
        BR_ZERO A0, minus
        F_ADD  S1, S1, S2
        JMP    next
    minus:
        F_SUB  S1, S1, S2
    next:
        A_ADDI A7, A7, -1
        MOV    A0, A7
        BR_NONZERO A0, loop
        A_IMM A3, {RES}
        STORE_S A3[0], S1
        HALT
    """
    acc = 0.0
    for flag, value in zip(flags, vals):
        acc = acc + value if flag else acc - value

    return Workload(
        name="branchy",
        program=assemble(source, "branchy"),
        initial_memory=memory_from_arrays(
            {FLAGS: flags, VALS: vals}
        ),
        expected_outputs={"acc": (RES, [acc])},
        description="data-dependent branches",
    )


def register_pressure(iterations: int = 40) -> Workload:
    """Cycle values through many B/T registers each iteration, creating
    a large population of simultaneously live destinations."""
    SRC, RES = 1000, 9000
    rng = Generator(103)
    data = rng.uniform(0.1, 0.5, iterations)

    moves = []
    for slot in range(8):
        moves.append(f"MOV T{slot + 1}, S{(slot % 4) + 2}")
    for slot in range(8):
        moves.append(f"MOV S{(slot % 4) + 2}, T{slot + 1}")
    body = "\n        ".join(moves)

    source = f"""
        S_IMM S2, 0.125
        S_IMM S3, 0.25
        S_IMM S4, 0.375
        S_IMM S5, 0.5
        S_IMM S1, 0.0
        A_IMM A1, {SRC}
        A_IMM A0, {iterations}
    loop:
        LOAD_S S6, A1[0]
        A_ADDI A1, A1, 1
        A_ADDI A0, A0, -1
        {body}
        F_ADD  S1, S1, S6
        F_ADD  S1, S1, S2
        BR_NONZERO A0, loop
        A_IMM A2, {RES}
        STORE_S A2[0], S1
        HALT
    """
    acc = 0.0
    for value in data:
        acc = acc + value
        acc = acc + 0.125

    return Workload(
        name="pressure",
        program=assemble(source, "pressure"),
        initial_memory=memory_from_arrays({SRC: data}),
        expected_outputs={"acc": (RES, [acc])},
        description="B/T register pressure",
    )


def fault_probe(n: int = 20, fault_index: int = 13) -> Workload:
    """A simple streaming kernel whose ``fault_index``-th load hits a
    known address -- inject a fault there for interrupt experiments.

    The faulting address is ``1000 + fault_index``.
    """
    SRC, DST = 1000, 2000
    rng = Generator(104)
    data = rng.uniform(0.5, 1.5, n)

    source = f"""
        S_IMM S1, 2.0
        A_IMM A1, {SRC}
        A_IMM A2, {DST}
        A_IMM A0, {n}
    loop:
        LOAD_S S2, A1[0]
        A_ADDI A1, A1, 1
        A_ADDI A0, A0, -1
        F_MUL  S2, S2, S1
        STORE_S A2[0], S2
        A_ADDI A2, A2, 1
        BR_NONZERO A0, loop
        HALT
    """
    expected = [v * 2.0 for v in data]

    wl = Workload(
        name="faultprobe",
        program=assemble(source, "faultprobe"),
        initial_memory=memory_from_arrays({SRC: data}),
        expected_outputs={"out": (DST, expected)},
        description="streaming kernel with a designated fault site",
    )
    wl.fault_address = SRC + fault_index  # type: ignore[attr-defined]
    return wl


ALL_SYNTHETIC = [
    dependency_chain,
    independent_streams,
    memory_alias_kernel,
    branch_heavy,
    register_pressure,
    fault_probe,
]
