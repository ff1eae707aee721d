"""Workload infrastructure.

A :class:`Workload` bundles a program of the model ISA with its input
data and an independently computed expected result (a pure-Python
reference), playing the role of the paper's CFT-compiled benchmark
binaries.  Engines receive a fresh copy of the initial memory per run;
validation compares the final memory against the reference -- this
checks that the hand-written assembly implements the kernel's
mathematics, independently of the engine-vs-ISS equivalence checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..isa.program import Program
from ..machine.memory import Memory


@dataclass
class Workload:
    """A benchmark program plus data and expected outputs."""

    name: str
    program: Program
    initial_memory: Memory
    #: label -> (base address, expected contents) for validation.
    expected_outputs: Dict[str, Tuple[int, Sequence[float]]] = field(
        default_factory=dict
    )
    description: str = ""

    def make_memory(self) -> Memory:
        """A fresh, mutable copy of the input data."""
        return self.initial_memory.copy()

    def validate(self, memory: Memory, rtol: float = 1e-9) -> List[str]:
        """Compare ``memory`` against the reference.

        A word matches by :func:`_close`.  Returns a list of mismatch
        descriptions (empty means correct).
        """
        failures: List[str] = []
        for label, (base, expected) in self.expected_outputs.items():
            actual = memory.read_array(base, len(expected))
            bad = [
                offset
                for offset, (got, want) in enumerate(zip(actual, expected))
                if not _close(float(got), want, rtol)
            ]
            if bad:
                first = bad[0]
                failures.append(
                    f"{self.name}/{label}: {len(bad)} of {len(expected)} "
                    f"words differ; first at +{first}: "
                    f"got {float(actual[first])!r}, "
                    f"want {float(expected[first])!r}"
                )
        return failures


def _close(got: float, want: float, rtol: float) -> bool:
    """``numpy.isclose(got, want, rtol, atol=1e-12)``: within
    ``1e-12 + rtol * |want|``, or equal infinities; NaN never matches."""
    if got == want:
        return True
    return abs(got - want) <= 1e-12 + rtol * abs(want) < math.inf


def memory_from_arrays(arrays: Dict[int, Sequence]) -> Memory:
    """Build a :class:`Memory` from ``{base_address: values}``."""
    memory = Memory()
    for base, values in arrays.items():
        memory.write_array(base, [_to_word(v) for v in values])
    return memory


def _to_word(value):
    """A plain Python int/float memory word, from any int- or float-like
    scalar (NumPy's included)."""
    if type(value) is float or type(value) is int:
        return value
    try:
        return operator.index(value)
    except TypeError:
        return float(value)
