"""Unit tests for Instruction construction rules and opcode metadata."""

import dataclasses
import pickle

import pytest

from repro.isa import A, FUClass, Instruction, OpKind, Opcode, S
from repro.isa.opcodes import DEFAULT_LATENCY, FU_INDEX


def example(opcode: Opcode) -> Instruction:
    """A well-formed instruction for any opcode."""
    return Instruction(
        opcode,
        dest=S(1) if opcode.has_dest else None,
        srcs=(S(2), S(3))[:opcode.n_srcs],
        base=A(4) if opcode.is_memory else None,
        imm=1 if opcode.uses_immediate else None,
        target=0 if opcode.is_control_flow else None,
    )


class TestInstructionValidation:
    def test_alu_needs_dest(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.A_ADD, srcs=(A(1), A(2)))

    def test_store_must_not_have_dest(self):
        with pytest.raises(ValueError):
            Instruction(
                Opcode.STORE_S, dest=S(1), srcs=(S(2),), base=A(1), imm=0
            )

    def test_wrong_source_count(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.A_ADD, dest=A(1), srcs=(A(2),))

    def test_memory_needs_base(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.LOAD_S, dest=S(1), imm=0)

    def test_memory_base_must_be_a_bank(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.LOAD_S, dest=S(1), base=S(2), imm=0)

    def test_branch_needs_target(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.BR_ZERO, srcs=(A(0),))

    def test_immediate_required(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.A_IMM, dest=A(0))

    def test_sources_includes_base(self):
        inst = Instruction(
            Opcode.STORE_S, srcs=(S(1),), base=A(2), imm=0
        )
        assert inst.sources == (S(1), A(2))

    def test_sources_without_base(self):
        inst = Instruction(Opcode.A_ADD, dest=A(0), srcs=(A(1), A(2)))
        assert inst.sources == (A(1), A(2))


class TestOpcodeMetadata:
    def test_every_opcode_has_latency(self):
        for op in Opcode:
            assert DEFAULT_LATENCY[op.fu] >= 1

    def test_latency_table_covers_all_fu_classes(self):
        assert set(DEFAULT_LATENCY) == set(FUClass)

    def test_cray_latency_spot_checks(self):
        assert DEFAULT_LATENCY[Opcode.A_ADD.fu] == 2
        assert DEFAULT_LATENCY[Opcode.A_MUL.fu] == 6
        assert DEFAULT_LATENCY[Opcode.F_ADD.fu] == 6
        assert DEFAULT_LATENCY[Opcode.F_MUL.fu] == 7
        assert DEFAULT_LATENCY[Opcode.F_RECIP.fu] == 14
        assert DEFAULT_LATENCY[Opcode.LOAD_S.fu] == 11
        assert DEFAULT_LATENCY[Opcode.S_AND.fu] == 1

    def test_predicates(self):
        assert Opcode.LOAD_A.is_load and Opcode.LOAD_A.is_memory
        assert Opcode.STORE_T.is_store and not Opcode.STORE_T.has_dest
        assert Opcode.BR_MINUS.is_branch and Opcode.BR_MINUS.is_control_flow
        assert Opcode.JMP.is_control_flow and not Opcode.JMP.is_branch
        assert Opcode.A_ADD.has_dest and not Opcode.A_ADD.is_memory
        assert not Opcode.NOP.has_dest

    def test_parse(self):
        assert Opcode.parse("f_mul") is Opcode.F_MUL
        with pytest.raises(ValueError):
            Opcode.parse("NOSUCH")

    def test_kind_partitions(self):
        kinds = {op: op.kind for op in Opcode}
        assert kinds[Opcode.LOAD_B] is OpKind.LOAD
        assert kinds[Opcode.STORE_B] is OpKind.STORE
        assert kinds[Opcode.HALT] is OpKind.HALT

    def test_fu_assignment(self):
        assert Opcode.A_MUL.fu is FUClass.ADDR_MUL
        assert Opcode.MOV.fu is FUClass.TRANSMIT
        assert Opcode.S_SHR.fu is FUClass.SCALAR_SHIFT
        assert Opcode.LOAD_T.fu is FUClass.MEMORY


class TestDecodedRecord:
    @pytest.mark.parametrize("opcode", list(Opcode))
    def test_flags_equal_the_opcode_predicates(self, opcode):
        inst = example(opcode)
        assert inst.is_load == opcode.is_load
        assert inst.is_store == opcode.is_store
        assert inst.is_memory == opcode.is_memory
        assert inst.is_branch == opcode.is_branch
        assert inst.is_control_flow == opcode.is_control_flow
        assert inst.is_halt == (opcode is Opcode.HALT)
        assert inst.is_nop == (opcode is Opcode.NOP)
        assert inst.fu is opcode.fu
        assert inst.fu_index == FU_INDEX[opcode.fu]

    @pytest.mark.parametrize("opcode", list(Opcode))
    def test_register_ids_and_masks(self, opcode):
        inst = example(opcode)
        assert inst.dest_id == (
            None if inst.dest is None else inst.dest.flat_index
        )
        assert inst.src_ids == tuple(reg.flat_index for reg in inst.srcs)
        assert inst.source_ids == tuple(
            reg.flat_index for reg in inst.sources
        )
        assert inst.src_mask == sum(
            1 << reg_id for reg_id in set(inst.source_ids)
        )
        assert inst.dest_mask == (
            0 if inst.dest_id is None else 1 << inst.dest_id
        )

    def test_replace_re_derives_the_record(self):
        inst = Instruction(Opcode.F_ADD, dest=S(1), srcs=(S(2), S(3)))
        assert inst.source_ids == (S(2).flat_index, S(3).flat_index)
        moved = dataclasses.replace(inst, dest=A(5), srcs=(S(6), S(6)))
        assert moved.dest_id == A(5).flat_index
        assert moved.source_ids == (S(6).flat_index,) * 2
        assert moved.src_mask == 1 << S(6).flat_index
        assert moved.dest_mask == 1 << A(5).flat_index

    def test_record_is_not_pickled(self):
        inst = example(Opcode.LOAD_S)
        assert inst.is_memory  # decoded here
        clone = pickle.loads(pickle.dumps(inst))
        assert "is_memory" not in vars(clone)
        assert clone == inst
        assert clone.is_memory and clone.base_id == A(4).flat_index

    def test_coercion_is_decoded_again_after_pickling(self):
        inst = Instruction(Opcode.A_ADD, dest=A(1), srcs=(A(2), A(3)))
        assert inst.coerce(1 << 23) == -(1 << 23)  # decoded here
        clone = pickle.loads(pickle.dumps(inst))
        assert "coerce" not in vars(clone)
        assert clone.coerce is inst.coerce
        assert clone.coerce(1 << 23) == -(1 << 23)
        assert example(Opcode.S_ADD).coerce(2.5) == 2.5
        assert example(Opcode.STORE_S).coerce is None
