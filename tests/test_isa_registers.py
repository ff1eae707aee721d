"""Unit tests for the register model."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.isa import (
    TOTAL_REGISTERS,
    A,
    B,
    RegBank,
    Register,
    RegisterFile,
    S,
    T,
    all_registers,
)
from repro.isa.registers import REGISTERS


class TestRegister:
    def test_constructors(self):
        assert A(3).bank is RegBank.A
        assert S(7).index == 7
        assert B(63).name == "B63"
        assert T(0).name == "T0"

    @pytest.mark.parametrize("bank,size", [
        (RegBank.A, 8), (RegBank.S, 8), (RegBank.B, 64), (RegBank.T, 64),
    ])
    def test_bank_sizes(self, bank, size):
        assert bank.size == size

    def test_total_register_count(self):
        assert TOTAL_REGISTERS == 144
        assert len(list(all_registers())) == 144

    @pytest.mark.parametrize("bank,index", [
        (RegBank.A, 8), (RegBank.S, 9), (RegBank.B, 64), (RegBank.T, 100),
        (RegBank.A, -1),
    ])
    def test_out_of_range_index_rejected(self, bank, index):
        with pytest.raises(ValueError):
            Register(bank, index)

    def test_parse_roundtrip(self):
        for reg in all_registers():
            assert Register.parse(reg.name) == reg

    def test_parse_case_insensitive(self):
        assert Register.parse("a3") == A(3)
        assert Register.parse(" t12 ") == T(12)

    @pytest.mark.parametrize("text", ["X3", "A", "Ax", "", "3A", "AA1"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            Register.parse(text)

    def test_flat_index_is_a_bijection(self):
        indices = sorted(reg.flat_index for reg in all_registers())
        assert indices == list(range(144))

    def test_equality_and_hash(self):
        assert A(1) == A(1)
        assert A(1) != S(1)
        assert len({A(1), A(1), S(1)}) == 2

    def test_ordering_is_total(self):
        regs = sorted(all_registers())
        assert len(regs) == 144


class TestInterning:
    """Registers are interned values: equality and hashing are identity."""

    def test_parse_returns_the_interned_register(self):
        assert Register.parse("A1") is A(1)
        assert Register.parse(" t12 ") is T(12)

    def test_constructor_returns_the_interned_register(self):
        assert Register(RegBank.S, 5) is S(5)

    def test_pickle_returns_the_interned_register(self):
        for reg in all_registers():
            assert pickle.loads(pickle.dumps(reg)) is reg

    def test_copy_and_deepcopy_return_the_interned_register(self):
        assert copy.copy(B(40)) is B(40)
        assert copy.deepcopy([A(1), T(63)])[1] is T(63)

    def test_register_table_is_indexed_by_id(self):
        assert len(REGISTERS) == TOTAL_REGISTERS
        for reg in all_registers():
            assert REGISTERS[reg.flat_index] is reg

    def test_registers_are_immutable(self):
        with pytest.raises(AttributeError):
            A(1).index = 2

    def test_results_do_not_depend_on_the_hash_seed(self):
        """Run a few zoo points under two hash seeds: identity hashing of
        registers must not leak into simulated results."""
        script = (
            "import hashlib, json\n"
            "from repro.analysis.sweeps import ENGINE_FACTORIES\n"
            "from repro.machine.config import CRAY1_LIKE\n"
            "from repro.serve.protocol import canonical_result_bytes\n"
            "from repro.workloads.suites import livermore_suite\n"
            "loops = livermore_suite('quick')[:2]\n"
            "config = CRAY1_LIKE.with_(window_size=12)\n"
            "out = {}\n"
            "for name in ('simple', 'tomasulo', 'dispatch-stack',\n"
            "             'ruu-limited', 'spec-ruu', 'future-file'):\n"
            "    for loop in loops:\n"
            "        result = ENGINE_FACTORIES[name](\n"
            "            loop.program, config, loop.make_memory()).run()\n"
            "        out[f'{name}|{loop.name}|w12'] = hashlib.sha256(\n"
            "            canonical_result_bytes(result)).hexdigest()\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        digests = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")])
            )
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True, timeout=300,
            )
            digests.append(json.loads(completed.stdout))
        assert digests[0] == digests[1]
        golden = Path(src).parent / "perfbench" / "digest.json"
        if golden.exists():
            with open(golden, encoding="utf-8") as handle:
                zoo = json.load(handle)["zoo"]
            assert {key: zoo[key] for key in digests[0]} == digests[0]


class TestRegisterFile:
    def test_initially_zero(self):
        rf = RegisterFile()
        for reg in all_registers():
            assert rf.read(reg) == 0

    def test_write_read(self):
        rf = RegisterFile()
        rf.write(S(2), 3.5)
        assert rf.read(S(2)) == 3.5
        assert rf.read(S(3)) == 0

    def test_copy_is_independent(self):
        rf = RegisterFile()
        rf.write(A(1), 7)
        clone = rf.copy()
        clone.write(A(1), 9)
        assert rf.read(A(1)) == 7
        assert clone.read(A(1)) == 9

    def test_equality(self):
        rf1, rf2 = RegisterFile(), RegisterFile()
        assert rf1 == rf2
        rf1.write(T(10), 1)
        assert rf1 != rf2

    def test_diff(self):
        rf1, rf2 = RegisterFile(), RegisterFile()
        rf1.write(A(0), 5)
        rf2.write(S(1), 2.0)
        diff = rf1.diff(rf2)
        assert diff == {"A0": (5, 0), "S1": (0, 2.0)}

    def test_nonzero(self):
        rf = RegisterFile()
        rf.write(B(10), 42)
        assert rf.nonzero() == {"B10": 42}

    def test_values_are_indexed_by_register_id(self):
        rf = RegisterFile()
        rf.write(T(3), 1.25)
        assert len(rf.values) == TOTAL_REGISTERS
        assert rf.values[T(3).flat_index] == 1.25

    def test_snapshot_has_all_registers(self):
        assert len(RegisterFile().snapshot()) == 144

    def test_eq_against_other_type(self):
        assert RegisterFile() != object()
