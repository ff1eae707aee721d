"""Checkpoint/restore: capture, validation, cross-engine resume."""

import json
import os

import pytest

from repro.analysis import ENGINE_FACTORIES
from repro.machine import Checkpoint, CheckpointError, MachineConfig
from repro.machine.checkpoint import VERSION, _digest
from repro.trace.iss import prefix_state, reference_state
from repro.workloads import fault_probe, lll3

CONFIG = MachineConfig(window_size=10)

#: Saved by an earlier release: ruu-bypass stopped at the page fault on
#: the load from 1012 in ``lll3(n=30)``.
PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "ruu-bypass-lll3-fault.checkpoint.json")


def trapped_engine(name="ruu-bypass", workload=None):
    """Run ``name`` on a fault-injected workload up to its precise trap."""
    workload = workload or fault_probe()
    memory = workload.make_memory()
    memory.inject_fault(workload.fault_address)
    engine = ENGINE_FACTORIES[name](workload.program, CONFIG, memory)
    engine.run()
    record = engine.interrupt_record
    assert record is not None and record.claims_precise
    return engine, workload


def finish_and_verify(machine, workload):
    """Service the fault, resume, and compare against the golden ISS."""
    machine.memory.service_fault(workload.fault_address)
    machine.continue_run()
    golden = reference_state(workload.program, workload.initial_memory)
    assert machine.regs.snapshot() == golden.regs.snapshot()
    assert machine.memory == golden.memory
    assert machine.retired == golden.executed


class TestCaptureRestore:
    def test_round_trip_same_engine(self, tmp_path):
        engine, workload = trapped_engine()
        record = engine.interrupt_record
        path = Checkpoint.capture(engine).save(str(tmp_path / "ck.json"))
        del engine  # restore must work from the file alone

        machine = Checkpoint.load(path).restore()
        # Restored architectural state is exactly the program-order
        # prefix up to the faulting instruction.
        golden = prefix_state(workload.program, record.seq,
                              workload.initial_memory)
        assert machine.regs.snapshot() == golden.regs.snapshot()
        assert machine.interrupt_record.to_json() == record.to_json()
        finish_and_verify(machine, workload)

    def test_cross_engine_restore(self, tmp_path):
        engine, workload = trapped_engine("ruu-bypass")
        path = Checkpoint.capture(engine).save(str(tmp_path / "ck.json"))
        del engine
        machine = Checkpoint.load(path).restore(engine="history-buffer")
        assert machine.name == "history-buffer"
        finish_and_verify(machine, workload)

    def test_restore_drained_engine(self):
        workload = lll3(n=30)
        engine = ENGINE_FACTORIES["ruu-bypass"](
            workload.program, CONFIG, workload.make_memory()
        )
        result = engine.run()
        machine = Checkpoint.capture(engine).restore()
        assert machine.regs.snapshot() == engine.regs.snapshot()
        assert machine.retired == result.instructions
        assert machine.done()

    def test_counters_and_stalls_survive(self):
        engine, _ = trapped_engine()
        machine = Checkpoint.capture(engine).restore()
        assert machine.cycle == engine.cycle
        assert machine.pc == engine.pc
        assert machine.retired == engine.retired
        assert machine.stalls == engine.stalls
        assert machine.retire_log == engine.retire_log


class TestRefusals:
    def test_mid_flight_engine_refused(self):
        workload = lll3(n=30)
        engine = ENGINE_FACTORIES["ruu-bypass"](
            workload.program, CONFIG, workload.make_memory()
        )
        for _ in range(10):  # tick by hand: instructions left in flight
            engine.tick()
            engine.cycle += 1
        assert not engine.done()
        with pytest.raises(CheckpointError, match="mid-flight"):
            Checkpoint.capture(engine)

    def test_imprecise_trap_refused(self):
        workload = fault_probe()
        memory = workload.make_memory()
        memory.inject_fault(workload.fault_address)
        engine = ENGINE_FACTORIES["tomasulo"](
            workload.program, CONFIG, memory
        )
        engine.run()
        assert engine.interrupt_record is not None
        with pytest.raises(CheckpointError, match="imprecise"):
            Checkpoint.capture(engine)

    def test_interrupted_restore_into_imprecise_refused(self):
        engine, _ = trapped_engine()
        checkpoint = Checkpoint.capture(engine)
        with pytest.raises(CheckpointError, match="precise"):
            checkpoint.restore(engine="tomasulo")

    def test_unknown_target_engine(self):
        engine, _ = trapped_engine()
        with pytest.raises(CheckpointError, match="unknown engine"):
            Checkpoint.capture(engine).restore(engine="no-such-machine")


class TestFileFormat:
    def test_checksum_rejects_corruption(self, tmp_path):
        engine, _ = trapped_engine()
        path = str(tmp_path / "ck.json")
        Checkpoint.capture(engine).save(path)
        with open(path) as handle:
            document = json.load(handle)
        document["payload"]["counters"]["retired"] += 1
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(CheckpointError, match="checksum"):
            Checkpoint.load(path)

    def test_version_gate(self, tmp_path):
        engine, _ = trapped_engine()
        document = Checkpoint.capture(engine).to_json()
        document["version"] = VERSION + 1
        with pytest.raises(CheckpointError, match="version"):
            Checkpoint.from_json(document)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"format\": \"something-else\"}")
        with pytest.raises(CheckpointError):
            Checkpoint.load(str(path))
        path.write_text("not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint.load(str(path))

    def test_save_is_atomic(self, tmp_path):
        engine, _ = trapped_engine()
        path = str(tmp_path / "ck.json")
        Checkpoint.capture(engine).save(path)
        leftovers = [name for name in tmp_path.iterdir()
                     if ".tmp" in name.name]
        assert leftovers == []

    def test_json_round_trip_is_lossless(self):
        engine, _ = trapped_engine()
        checkpoint = Checkpoint.capture(engine)
        restored = Checkpoint.from_json(
            json.loads(json.dumps(checkpoint.to_json()))
        )
        assert restored.registers == checkpoint.registers
        assert restored.memory_words == checkpoint.memory_words
        assert restored.counters == checkpoint.counters
        assert restored.interrupt.to_json() == checkpoint.interrupt.to_json()
        assert restored.config == checkpoint.config
        assert list(restored.program) == list(checkpoint.program)

    @pytest.mark.parametrize("field, value", [
        ("window_size", -3), ("issue_width", "7"),
    ])
    def test_invalid_config_refused(self, field, value):
        """The checksum only proves the file is intact; anyone can
        recompute it, so the config is validated as well."""
        engine, _ = trapped_engine()
        document = Checkpoint.capture(engine).to_json()
        document["payload"]["config"][field] = value
        document["sha256"] = _digest(document["payload"])
        with pytest.raises(CheckpointError, match=field):
            Checkpoint.from_json(document)


class TestPinnedFile:
    @pytest.mark.parametrize("engine", ["ruu-bypass", "history-buffer"])
    def test_checkpoint_on_disk_still_resumes(self, engine):
        workload = lll3(n=30)
        machine = Checkpoint.load(PINNED).restore(engine=engine)
        assert machine.name == engine
        assert machine.interrupt_record.cause.address == 1012
        machine.memory.service_fault(1012)
        machine.continue_run()
        golden = reference_state(workload.program, workload.initial_memory)
        assert machine.regs.snapshot() == golden.regs.snapshot()
        assert machine.memory == golden.memory
        assert machine.retired == golden.executed
