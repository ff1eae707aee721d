"""``MachineConfig``'s JSON form, its decoder and its sizing rules."""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis import ENGINE_FACTORIES
from repro.isa.opcodes import FUClass
from repro.machine.config import (
    CRAY1_LIKE,
    SIZING_MINIMUMS,
    ConfigError,
    MachineConfig,
)
from repro.trace import reference_state
from repro.workloads import branch_heavy, lll3

RESIZED = MachineConfig(window_size=50, dispatch_paths=2, n_load_registers=4)
SLOW_ADD = CRAY1_LIKE.with_(
    latencies={**CRAY1_LIKE.latencies, FUClass.FLOAT_ADD: 9}
)


def refusal(payload):
    with pytest.raises(ConfigError) as excinfo:
        MachineConfig.from_json(payload)
    return excinfo.value


class TestSizingRules:
    def test_every_integer_field_has_a_minimum(self):
        """A field added later must declare its sizing rule: without
        one, ``from_json`` refuses it as unknown."""
        integer_fields = {
            f.name for f in dataclasses.fields(MachineConfig)
            if f.name != "latencies"
        }
        assert set(SIZING_MINIMUMS) == integer_fields

    @pytest.mark.parametrize("name", sorted(
        name for name in SIZING_MINIMUMS if name != "max_cycles"
    ))
    def test_every_engine_runs_at_the_minimum(self, name):
        """Each minimum is a machine that still runs: every engine
        finishes two programs (memory and branches) at the golden
        state."""
        config = CRAY1_LIKE.with_(**{name: SIZING_MINIMUMS[name]})
        for workload in (lll3(n=12), branch_heavy()):
            golden = reference_state(workload.program,
                                     workload.initial_memory)
            for engine_name, build in ENGINE_FACTORIES.items():
                memory = workload.make_memory()
                engine = build(workload.program, config, memory)
                engine.run()
                assert engine.regs.snapshot() == golden.regs.snapshot(), \
                    (engine_name, workload.name)
                assert memory == golden.memory, (engine_name, workload.name)


class TestJsonForm:
    @pytest.mark.parametrize("config", [CRAY1_LIKE, RESIZED, SLOW_ADD],
                             ids=["default", "resized", "slow-add"])
    def test_round_trip(self, config):
        payload = json.loads(json.dumps(config.to_json()))
        assert MachineConfig.from_json(payload) == config

    def test_every_field_latencies_by_unit_name(self):
        payload = CRAY1_LIKE.to_json()
        assert list(payload) == [
            f.name for f in dataclasses.fields(MachineConfig)
        ]
        assert payload["latencies"]["float_add"] == 6
        assert payload["window_size"] == CRAY1_LIKE.window_size

    def test_part_of_a_document_overrides_the_base(self):
        config = MachineConfig.from_json({"window_size": 4}, base=RESIZED)
        assert config == RESIZED.with_(window_size=4)
        assert MachineConfig.from_json({}) == CRAY1_LIKE

    @pytest.mark.parametrize("config, digest", [
        (CRAY1_LIKE,
         "5cabb7ac2d602a48dde9b31a24a13ff846cbd7157e391e76beef72c9a36fe463"),
        (RESIZED,
         "8f9f1cbadf0f5647a0b80431e46f2b9f6c1529ccc9a7ca65ef7564f285afdb2d"),
        (SLOW_ADD,
         "113512ca179a3ac5b63f2979bc6d6557a9628dd386c0bc449bca67bffbb9dd15"),
    ], ids=["default", "resized", "slow-add"])
    def test_fingerprint_bytes_pinned(self, config, digest):
        """Result-cache keys hash these bytes; they must not move."""
        assert hashlib.sha256(config.fingerprint()).hexdigest() == digest


class TestDecoderRefusals:
    def test_unknown_field(self):
        error = refusal({"window_size": 4, "warp_factor": 9})
        assert error.reason == "unknown_config_field"
        assert error.detail == {"field": "warp_factor"}

    @pytest.mark.parametrize("value", ["7", 7.0, True, None])
    def test_non_integer(self, value):
        error = refusal({"issue_width": value})
        assert error.reason == "bad_config_value"
        assert error.detail == {"field": "issue_width"}

    @pytest.mark.parametrize("name", sorted(SIZING_MINIMUMS))
    def test_below_minimum(self, name):
        minimum = SIZING_MINIMUMS[name]
        error = refusal({name: minimum - 1})
        assert error.reason == "bad_config_value"
        assert error.detail == {"field": name, "minimum": minimum}
        assert MachineConfig.from_json({name: minimum}) \
            == CRAY1_LIKE.with_(**{name: minimum})

    def test_first_bad_field_in_payload_order(self):
        error = refusal({"window_size": 0, "watchdog_cycles": -1})
        assert error.detail["field"] == "window_size"

    @pytest.mark.parametrize("latencies", [
        [["float_add", 6]],
        {"warp_drive": 3},
        {"float_add": 0},
        {"float_add": "6"},
    ], ids=["not-an-object", "unknown-unit", "zero", "string"])
    def test_bad_latencies(self, latencies):
        error = refusal({"latencies": latencies})
        assert error.reason == "bad_config_value"
        assert error.detail["field"] == "latencies"
