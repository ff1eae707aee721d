"""Protocol layer of the simulation service: validation and wire form.

Two contracts matter here.  Every malformed request must be rejected
*before* it touches an engine, with a stable machine-readable reason
slug (clients and the service tests key on those slugs).  And the wire
form of a result must be deterministic: serializing the same simulation
twice -- or once over the network and once in-process -- yields
byte-identical canonical JSON.
"""

import dataclasses

import pytest

from repro.analysis.parallel import run_point
from repro.lint.configcheck import SIZING_MINIMUMS
from repro.machine.config import CRAY1_LIKE, MachineConfig
from repro.serve.protocol import (
    LIMITS,
    OVERRIDABLE_CONFIG_FIELDS,
    ProtocolError,
    build_workload_registry,
    canonical_result_bytes,
    parse_batch,
    parse_sim_request,
    result_to_wire,
    wire_to_result,
)

WORKLOADS = build_workload_registry()


def parse(payload):
    return parse_sim_request(payload, WORKLOADS)


def reason_of(payload):
    with pytest.raises(ProtocolError) as excinfo:
        parse(payload)
    return excinfo.value.reason


class TestRegistry:
    def test_livermore_and_synthetic_by_name(self):
        assert "LLL1" in WORKLOADS
        assert "LLL14" in WORKLOADS
        assert "chain" in WORKLOADS
        assert len(WORKLOADS) >= 18

    def test_names_match_workloads(self):
        for name, workload in WORKLOADS.items():
            assert workload.name == name


class TestValidRequests:
    def test_workload_request_defaults(self):
        request = parse({"workload": "LLL3"})
        assert request.point.engine == "ruu-bypass"
        assert request.point.workload.name == "LLL3"
        assert request.point.config == CRAY1_LIKE
        assert request.key

    def test_program_request_assembles(self):
        request = parse({"program": "A_IMM A0, 3\nHALT"})
        assert len(request.point.workload.program) == 2

    def test_config_overrides_apply(self):
        request = parse(
            {"workload": "LLL3", "config": {"window_size": 4}}
        )
        assert request.point.config.window_size == 4

    def test_identical_requests_share_a_key(self):
        a = parse({"workload": "LLL3", "config": {"window_size": 8}})
        b = parse({"workload": "LLL3", "config": {"window_size": 8}})
        c = parse({"workload": "LLL3", "config": {"window_size": 4}})
        assert a.key == b.key
        assert a.key != c.key

    def test_label_is_carried(self):
        assert parse({"workload": "LLL3", "label": "x"}).label == "x"


class TestRejections:
    def test_non_object_request(self):
        assert reason_of([1, 2]) == "bad_request"

    def test_missing_source(self):
        assert reason_of({}) == "missing_source"

    def test_ambiguous_source(self):
        assert reason_of(
            {"workload": "LLL3", "program": "HALT"}
        ) == "ambiguous_source"

    def test_unknown_workload_lists_available(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse({"workload": "LLL99"})
        assert excinfo.value.reason == "unknown_workload"
        assert "LLL3" in excinfo.value.detail["available"]

    def test_unknown_engine(self):
        assert reason_of(
            {"workload": "LLL3", "engine": "magic"}
        ) == "unknown_engine"

    def test_chaos_engines_not_serveable(self):
        """The chaos engines live in ``tests.chaos`` and only a fleet
        test installs them, so the registry the service validates
        against never offers an engine built to kill workers."""
        assert reason_of(
            {"workload": "LLL3", "engine": "chaos-crash-once"}
        ) == "unknown_engine"

    def test_bad_program_reports_assembly_error(self):
        assert reason_of({"program": "NOT_AN_OPCODE X9"}) \
            == "bad_program"

    def test_program_too_long(self):
        src = "A" * (LIMITS["max_program_chars"] + 1)
        with pytest.raises(ProtocolError) as excinfo:
            parse({"program": src})
        assert excinfo.value.reason == "program_too_long"
        assert excinfo.value.detail["limit"] \
            == LIMITS["max_program_chars"]

    def test_unknown_config_field(self):
        assert reason_of(
            {"workload": "LLL3", "config": {"warp_factor": 9}}
        ) == "unknown_config_field"

    def test_latencies_not_overridable(self):
        assert "latencies" not in OVERRIDABLE_CONFIG_FIELDS
        assert reason_of(
            {"workload": "LLL3", "config": {"latencies": {}}}
        ) == "unknown_config_field"

    def test_non_integer_config_value(self):
        assert reason_of(
            {"workload": "LLL3", "config": {"window_size": "big"}}
        ) == "bad_config_value"

    def test_bool_is_not_an_integer(self):
        assert reason_of(
            {"workload": "LLL3", "config": {"window_size": True}}
        ) == "bad_config_value"

    @pytest.mark.parametrize("overrides", [
        {"window_size": -1},
        {"window_size": 0},
        {"issue_width": 0},
        {"dispatch_paths": 0},
        {"counter_bits": 0},
        {"max_cycles": 0},
        {"window_size": 0, "watchdog_cycles": 0},
    ], ids=lambda overrides: ",".join(
        f"{name}={value}" for name, value in overrides.items()))
    def test_negative_config_value(self, overrides):
        """Every sizing rule ``configcheck`` calls an error is a 400:
        a zero window would otherwise spin a worker until the
        watchdog (or ``max_cycles``) fires."""
        with pytest.raises(ProtocolError) as excinfo:
            parse({"workload": "LLL3", "config": overrides})
        assert excinfo.value.reason == "bad_config_value"
        field = next(name for name, value in overrides.items()
                     if value < SIZING_MINIMUMS[name])
        assert excinfo.value.detail == {
            "field": field, "minimum": SIZING_MINIMUMS[field],
        }

    def test_max_cycles_limit_pinned(self):
        too_big = LIMITS["max_max_cycles"] + 1
        with pytest.raises(ProtocolError) as excinfo:
            parse({"workload": "LLL3",
                   "config": {"max_cycles": too_big}})
        assert excinfo.value.reason == "max_cycles_too_large"
        assert excinfo.value.detail["got"] == too_big

    def test_error_payload_is_machine_readable(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse({"workload": "LLL99"})
        payload = excinfo.value.to_json()
        assert payload["reason"] == "unknown_workload"
        assert isinstance(payload["message"], str)


class TestBatchEnvelope:
    def test_items_pass_through(self):
        items = parse_batch({"requests": [{"workload": "LLL1"}, {}]})
        assert len(items) == 2

    def test_not_an_envelope(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_batch({"workload": "LLL3"})
        assert excinfo.value.reason == "bad_request"

    def test_empty_batch(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_batch({"requests": []})
        assert excinfo.value.reason == "empty_batch"

    def test_batch_size_limit_pinned(self):
        requests = [{"workload": "LLL1"}] * (LIMITS["max_batch_size"] + 1)
        with pytest.raises(ProtocolError) as excinfo:
            parse_batch({"requests": requests})
        assert excinfo.value.reason == "batch_too_large"
        assert excinfo.value.detail["limit"] == LIMITS["max_batch_size"]


class TestWireForm:
    @pytest.fixture(scope="class")
    def result(self):
        request = parse(
            {"workload": "LLL3", "config": {"window_size": 8}}
        )
        return run_point(request.point)

    def test_roundtrip_preserves_everything(self, result):
        rebuilt = wire_to_result(result_to_wire(result))
        assert canonical_result_bytes(rebuilt) \
            == canonical_result_bytes(result)
        assert rebuilt.cycles == result.cycles
        assert rebuilt.instructions == result.instructions

    def test_volatile_extras_stripped(self, result):
        wire = result_to_wire(result)
        assert "host_seconds" not in wire.get("extra", {})
        assert "schema" not in wire

    def test_rerun_is_byte_identical(self, result):
        request = parse(
            {"workload": "LLL3", "config": {"window_size": 8}}
        )
        again = run_point(request.point)
        assert canonical_result_bytes(again) \
            == canonical_result_bytes(result)

    def test_different_points_differ(self, result):
        other = run_point(
            parse({"workload": "LLL3",
                   "config": {"window_size": 4}}).point
        )
        assert canonical_result_bytes(other) \
            != canonical_result_bytes(result)


class TestOverridableFields:
    def test_every_machineconfig_field_except_latencies(self):
        names = {f.name for f in dataclasses.fields(MachineConfig)}
        assert OVERRIDABLE_CONFIG_FIELDS == names - {"latencies"}


class TestTraceRequests:
    def test_trace_defaults_off(self):
        request = parse({"workload": "LLL3"})
        assert request.point.trace is False
        assert not request.key.endswith(":trace")

    def test_traced_key_never_coalesces_with_untraced(self):
        # Same explicit budget so the configs (and thus the content
        # hashes) match; only the ":trace" suffix may separate them.
        config = {"max_cycles": 100_000}
        plain = parse({"workload": "LLL3", "config": config})
        traced = parse({"workload": "LLL3", "config": config,
                        "trace": True})
        assert traced.point.trace is True
        assert traced.key == plain.key + ":trace"

    def test_trace_must_be_boolean(self):
        assert reason_of({"workload": "LLL3", "trace": "yes"}) \
            == "bad_request"

    def test_explicit_oversized_budget_refused(self):
        payload = {
            "workload": "LLL3", "trace": True,
            "config": {"max_cycles": LIMITS["max_trace_cycles"] + 1},
        }
        with pytest.raises(ProtocolError) as excinfo:
            parse(payload)
        assert excinfo.value.reason == "trace_too_large"
        assert excinfo.value.detail["limit"] == LIMITS["max_trace_cycles"]

    def test_implicit_budget_clamped_to_trace_ceiling(self):
        request = parse({"workload": "LLL3", "trace": True})
        assert request.point.config.max_cycles \
            == LIMITS["max_trace_cycles"]

    def test_explicit_budget_within_ceiling_survives(self):
        request = parse({
            "workload": "LLL3", "trace": True,
            "config": {"max_cycles": 100_000},
        })
        assert request.point.config.max_cycles == 100_000

    def test_traced_run_serves_attribution(self):
        result = run_point(
            parse({"workload": "LLL1", "trace": True,
                   "config": {"window_size": 8}}).point
        )
        attribution = result.extra["attribution"]
        assert sum(attribution["buckets"].values()) == result.cycles
        # The attribution summary must survive the wire form.
        assert wire_to_result(result_to_wire(result)) \
            .extra["attribution"] == attribution


class TestSizingRules:
    def test_zero_load_registers_is_a_400(self):
        """Nine engines cannot be built without a load register; the
        request is refused before it reaches a worker."""
        with pytest.raises(ProtocolError) as excinfo:
            parse({"workload": "LLL3", "config": {"n_load_registers": 0}})
        assert excinfo.value.reason == "bad_config_value"
        assert excinfo.value.detail == {
            "field": "n_load_registers", "minimum": 1,
        }
