"""Tests for the binary parcel encoding of the model ISA."""

import pytest
from hypothesis import given, settings

from repro.isa import A, Instruction, Opcode, S, assemble
from repro.isa.encoding import (
    EncodingError,
    decode_program,
    encode_program,
    parcel_count,
    program_parcel_size,
)
from repro.workloads import all_loops

from tests.strategies import program_text


def roundtrip(program):
    return decode_program(encode_program(program), name=program.name)


def assert_programs_equal(a, b):
    assert len(a) == len(b)
    for inst_a, inst_b in zip(a, b):
        assert inst_a.opcode is inst_b.opcode, (inst_a, inst_b)
        assert inst_a.dest == inst_b.dest, (inst_a, inst_b)
        assert inst_a.srcs == inst_b.srcs, (inst_a, inst_b)
        assert inst_a.base == inst_b.base, (inst_a, inst_b)
        assert inst_a.imm == inst_b.imm, (inst_a, inst_b)
        assert inst_a.target == inst_b.target, (inst_a, inst_b)


class TestParcelCounts:
    def test_one_parcel_forms(self):
        one = assemble("A_ADD A1, A2, A3\nNOP\nF_MUL S1, S2, S3")
        assert parcel_count(one[0]) == 1
        assert parcel_count(one[1]) == 1
        assert parcel_count(one[2]) == 1

    def test_two_parcel_forms(self):
        src = """
            A_IMM A1, 5
            A_ADDI A1, A1, 1
            S_SHL S1, S1, 2
            LOAD_S S1, A1[0]
            STORE_S A1[0], S1
            BR_ZERO A0, end
            JMP end
            MOV B5, A1
        end:
            HALT
        """
        program = assemble(src)
        for inst in program[:-1]:
            assert parcel_count(inst) == 2, inst

    def test_program_parcel_size(self):
        program = assemble("NOP\nA_IMM A1, 1\nHALT")
        assert program_parcel_size(program) == 1 + 2 + 1

    def test_counts_match_actual_encoding(self):
        for workload in all_loops()[:4]:
            program = workload.program
            blob = encode_program(program)
            import struct
            n_parcels = struct.unpack_from("<I", blob, 4)[0]
            assert n_parcels == program_parcel_size(program)


class TestRoundtrip:
    @pytest.mark.parametrize("source", [
        "A_ADD A1, A2, A3",
        "A_MUL A7, A0, A7",
        "A_ADDI A3, A3, -17",
        "A_IMM A2, -30000",
        "S_IMM S1, 123",
        "S_IMM S1, 2.5",           # literal pool
        "S_IMM S1, 1000000000",    # too big for imm16 -> pool
        "S_AND S4, S5, S6",
        "S_SHR S7, S7, 8",
        "F_RECIP S2, S3",
        "MOV A1, A2",
        "MOV B63, A7",
        "MOV S1, T63",
        "MOV T17, S0",
        "LOAD_S S1, A2[100]",
        "LOAD_A A1, A2[-3]",
        "LOAD_B B33, A1[0]",
        "LOAD_T T60, A0[7]",
        "STORE_S A1[5], S7",
        "STORE_A A1[-5], A0",
        "STORE_T A7[1], T42",
        "BR_MINUS S0, end\nend: HALT",
        "BR_NONZERO A5, end\nend: HALT",
        "JMP end\nend: HALT",
        "NOP",
    ])
    def test_single_instruction(self, source):
        program = assemble(source)
        assert_programs_equal(program, roundtrip(program))

    @pytest.mark.parametrize("index", range(1, 15))
    def test_livermore_loops_roundtrip(self, index):
        from repro.workloads import LIVERMORE_FACTORIES
        program = LIVERMORE_FACTORIES[index]().program
        assert_programs_equal(program, roundtrip(program))

    def test_decoded_program_executes_identically(self):
        from repro.trace import reference_state
        from repro.workloads import lll3
        workload = lll3()
        decoded = roundtrip(workload.program)
        original = reference_state(workload.program, workload.initial_memory)
        redecoded = reference_state(decoded, workload.initial_memory)
        assert original.regs == redecoded.regs
        assert original.memory == redecoded.memory

    @settings(max_examples=40, deadline=None)
    @given(source=program_text())
    def test_random_programs_roundtrip(self, source):
        program = assemble(source)
        assert_programs_equal(program, roundtrip(program))


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(EncodingError):
            decode_program(b"XXXXrest")

    def test_offset_too_large(self):
        inst = Instruction(Opcode.LOAD_S, dest=S(1), base=A(1), imm=1 << 20)
        from repro.isa.program import build_program
        program = build_program([inst])
        with pytest.raises(EncodingError):
            encode_program(program)

    def test_literal_pool_deduplicates(self):
        program = assemble("""
            S_IMM S1, 3.25
            S_IMM S2, 3.25
            S_IMM S3, 4.5
            HALT
        """)
        blob = encode_program(program)
        import struct
        n_pool = struct.unpack_from("<I", blob, 8)[0]
        assert n_pool == 2
