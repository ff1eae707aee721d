"""The observability subsystem (`repro.obs`): recorder, attribution,
Chrome export and trace diff.

Three contracts are pinned here.  Attaching a recorder must never
change simulated behaviour (cycle counts, stall mix, architectural
state).  Attribution must classify *every* cycle -- the zoo-wide sweep
lives in ``test_full_invariant_sweep.py``; here the unit-level error
paths and the interrupt/misprediction corners are exercised.  And the
Chrome exporter's output must satisfy its own in-repo validator, which
is also what CI runs against every engine.
"""

import json

import pytest

from repro.analysis import ENGINE_FACTORIES
from repro.core import RUUEngine, SpeculativeRUUEngine, StaticBTFNPredictor
from repro.machine import MachineConfig, ResultBus
from repro.machine.timeline import STAGES, Timeline
from repro.obs import (
    AttributionError,
    TraceRecorder,
    attribute_cycles,
    attribution_delta,
    chrome_trace,
    diff_against_iss,
    diff_recorders,
    diff_stage_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.events import COMMITTED, DRAIN, UNACCOUNTED
from repro.trace import FunctionalExecutor
from repro.workloads import branch_heavy, dependency_chain, fault_probe


def recorded_run(workload, config, engine_name="ruu-bypass",
                 detail=True, sample_every=1):
    builder = ENGINE_FACTORIES[engine_name]
    engine = builder(workload.program, config, workload.make_memory())
    recorder = TraceRecorder(detail=detail, sample_every=sample_every)
    engine.recorder = recorder
    result = engine.run()
    return engine, recorder, result


# ----------------------------------------------------------------------
# TraceRecorder
# ----------------------------------------------------------------------

class TestRecorder:
    def test_no_recorder_by_default(self, livermore_loops, config):
        workload = livermore_loops[0]
        engine = RUUEngine(workload.program, config,
                           memory=workload.make_memory())
        assert engine.recorder is None

    def test_recording_does_not_perturb_the_simulation(
            self, livermore_loops, config):
        workload = livermore_loops[2]
        bare = RUUEngine(workload.program, config,
                         memory=workload.make_memory())
        bare_result = bare.run()
        engine, recorder, result = recorded_run(workload, config)
        assert result.cycles == bare_result.cycles
        assert result.instructions == bare_result.instructions
        assert dict(result.stalls) == dict(bare_result.stalls)
        assert engine.regs == bare.regs

    def test_stage_events_match_the_timeline(self, livermore_loops,
                                             config):
        engine, recorder, _ = recorded_run(livermore_loops[0], config)
        timeline = Timeline.of(recorder)
        assert timeline.sequences() == list(range(engine.next_seq))
        for seq in timeline.sequences():
            recorded = {
                stage: column[seq]
                for stage, column in zip(STAGES, recorder.stage_cycles)
                if column[seq] >= 0
            }
            assert recorded == timeline.events_for(seq), seq

    def test_streaming_mode_keeps_no_detail(self, livermore_loops,
                                            config):
        _, recorder, result = recorded_run(
            livermore_loops[0], config, detail=False)
        assert recorder.cycles_seen == result.cycles
        assert recorder.stage_maps() == {}
        assert recorder.samples == []
        assert recorder.cycle_buckets == []
        assert sum(recorder.buckets.values()) == result.cycles

    def test_run_end_snapshot(self, livermore_loops, config):
        engine, recorder, result = recorded_run(livermore_loops[0],
                                                config)
        assert recorder.engine_name == engine.name
        assert recorder.workload == workload_name(livermore_loops[0])
        assert recorder.final_cycles == result.cycles
        assert recorder.commit_order == list(engine.retire_log)
        assert not recorder.interrupted

    def test_lifetime_spans_decode_to_retire(self, livermore_loops,
                                             config):
        _, recorder, result = recorded_run(livermore_loops[0], config)
        seq = recorder.commit_order[0]
        lifetime = recorder.lifetime(seq)
        assert lifetime is not None
        first, last = lifetime
        assert 0 <= first <= last <= result.cycles
        assert recorder.lifetime(10**9) is None

    def test_sample_every_thins_the_tape(self, livermore_loops, config):
        _, dense, _ = recorded_run(livermore_loops[0], config)
        _, sparse, _ = recorded_run(livermore_loops[0], config,
                                    sample_every=16)
        assert 0 < len(sparse.samples) < len(dense.samples)

    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            TraceRecorder(sample_every=0)

    #: Every non-chaos engine's occupancy keys, as its samples carry them.
    OCCUPANCY_KEYS = {
        "simple": [],
        "dispatch-stack": ["stack"],
        "tomasulo": ["stations"],
        "tagunit": ["stations"],
        "rspool": ["pool"],
        "rstu": ["pool"],
        "ruu-bypass": ["window"],
        "ruu-nobypass": ["window"],
        "ruu-limited": ["window"],
        "spec-ruu": ["window", "pending_branches"],
        "reorder-buffer": ["buffer"],
        "rob-bypass": ["buffer"],
        "history-buffer": ["buffer"],
        "future-file": ["buffer"],
    }

    def test_occupancy_table_covers_the_zoo(self):
        engines = {name for name in ENGINE_FACTORIES
                   if not name.startswith("chaos-")}
        assert set(self.OCCUPANCY_KEYS) == engines

    @pytest.mark.parametrize("engine_name", sorted(OCCUPANCY_KEYS))
    def test_occupancy_keys(self, engine_name, livermore_loops, config):
        _, recorder, _ = recorded_run(livermore_loops[0], config,
                                      engine_name)
        expected = self.OCCUPANCY_KEYS[engine_name]
        assert recorder.samples
        for _, occupancy, _, _ in recorder.samples:
            assert list(occupancy) == expected, engine_name
        if expected:
            assert any(sum(occupancy.values())
                       for _, occupancy, _, _ in recorder.samples)

    def test_bus_samples_count_outstanding_reservations(self):
        """A sample's result-bus value is the reservations for cycles
        after it, also once ``Engine.run`` has pruned past ones at a
        4096-cycle boundary."""
        workload = dependency_chain(1500)
        engine = ENGINE_FACTORIES["ruu-bypass"](
            workload.program, MachineConfig(window_size=12),
            workload.make_memory())
        made = []  # (cycle reserved at, cycle reserved)

        class SpyBus(ResultBus):
            __slots__ = ()

            def reserve(self, cycle):
                taken = super().reserve(cycle)
                if taken:
                    made.append((engine.cycle, cycle))
                return taken

        engine.result_bus = SpyBus()
        engine.recorder = recorder = TraceRecorder(sample_every=3)
        result = engine.run()
        assert result.cycles > 2 * 4096
        samples = recorder.samples
        assert len(samples) == (result.cycles + 2) // 3
        for cycle, _, bus, _ in samples:
            assert bus == sum(1 for at, reserved in made
                              if at <= cycle < reserved), cycle

    def test_describe_mentions_buckets(self, livermore_loops, config):
        _, recorder, _ = recorded_run(livermore_loops[0], config)
        text = recorder.describe()
        assert COMMITTED in text
        assert "cycles" in text

    def test_samples_survive_changing_occupancy_keys(self):
        """Engines keep their occupancy keys fixed, but a change of keys
        mid-run starts a new sample run instead of mislabelling values;
        the export thins across the runs as one sample sequence."""
        shapes = [{}, {}, {"a": 1}, {"a": 2}, {"a": 3, "b": 4}, {"b": 5}]

        class Stub:
            interrupt_record = None
            fetch_done = True
            decode_slot = None
            next_seq = 9
            retired = 4

            class result_bus:
                @staticmethod
                def reservations(after):
                    return 2

            @property
            def occupancy_keys(self):
                return tuple(shapes[self.cycle])

            def occupancy_counts(self):
                return tuple(shapes[self.cycle].values())

        recorder = TraceRecorder()
        stub = Stub()
        for stub.cycle in range(len(shapes)):
            recorder.on_cycle(stub)
        assert recorder.samples == [
            (cycle, shape, 2, 5) for cycle, shape in enumerate(shapes)]
        assert len(recorder.sample_runs) == 4
        events = chrome_trace(recorder, counter_every=2)["traceEvents"]
        occupancy = [(e["ts"], e["args"]) for e in events
                     if e["name"] == "occupancy"]
        assert occupancy == [(2, {"a": 1}), (4, {"a": 3, "b": 4})]
        in_flight = [e["ts"] for e in events if e["name"] == "in_flight"]
        assert in_flight == [0, 2, 4]


# ----------------------------------------------------------------------
# Cycle attribution
# ----------------------------------------------------------------------

class TestAttribution:
    def test_partition_sums_to_cycles(self, livermore_loops, config):
        _, recorder, result = recorded_run(livermore_loops[2], config)
        attribution = attribute_cycles(result, recorder)
        assert sum(attribution.buckets.values()) == result.cycles
        assert attribution.unaccounted == 0
        assert attribution.buckets[COMMITTED] > 0
        assert attribution.buckets.get(DRAIN, 0) > 0
        assert 0.0 < attribution.utilization <= 1.0

    def test_stall_events_reconcile(self, livermore_loops, config):
        _, recorder, result = recorded_run(livermore_loops[2], config)
        attribution = attribute_cycles(result, recorder)
        assert attribution.stall_events == dict(result.stalls)

    def test_late_attachment_is_rejected(self, livermore_loops, config):
        workload = livermore_loops[0]
        engine = RUUEngine(workload.program, config,
                           memory=workload.make_memory())
        result = engine.run()
        with pytest.raises(AttributionError):
            attribute_cycles(result, TraceRecorder())

    def test_interrupted_run_is_fully_attributed(self, config):
        probe = fault_probe()
        memory = probe.make_memory()
        memory.inject_fault(probe.fault_address)
        engine = RUUEngine(probe.program, config, memory=memory)
        recorder = TraceRecorder()
        engine.recorder = recorder
        result = engine.run()
        assert engine.interrupt_record is not None
        attribution = attribute_cycles(result, recorder)
        assert sum(attribution.buckets.values()) == result.cycles
        assert attribution.unaccounted == 0
        assert recorder.interrupted

    def test_misprediction_rollback_is_fully_attributed(self, config):
        workload = branch_heavy()
        engine = SpeculativeRUUEngine(
            workload.program, config, memory=workload.make_memory(),
            predictor=StaticBTFNPredictor(),
        )
        recorder = TraceRecorder()
        engine.recorder = recorder
        result = engine.run()
        attribution = attribute_cycles(result, recorder)
        assert attribution.unaccounted == 0
        # Wrong-path retirements were rolled back: the final commit
        # stream is exactly the architectural one.
        assert recorder.commit_order == list(engine.retire_log)
        assert len(recorder.commit_order) == result.instructions

    def test_json_and_describe(self, livermore_loops, config):
        _, recorder, result = recorded_run(livermore_loops[0], config)
        attribution = attribute_cycles(result, recorder)
        payload = attribution.to_json()
        assert payload["cycles"] == result.cycles
        assert sum(payload["buckets"].values()) == result.cycles
        json.dumps(payload)  # wire-serializable
        assert "cycle attribution" in attribution.describe()

    def test_delta_covers_both_runs(self, livermore_loops, config):
        _, rec_a, res_a = recorded_run(livermore_loops[0], config,
                                       "ruu-bypass")
        _, rec_b, res_b = recorded_run(livermore_loops[0], config,
                                       "tomasulo")
        delta = attribution_delta(attribute_cycles(res_a, rec_a),
                                  attribute_cycles(res_b, rec_b))
        assert sum(a for a, _ in delta.values()) == res_a.cycles
        assert sum(b for _, b in delta.values()) == res_b.cycles


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------

class TestChromeExport:
    def test_document_validates(self, livermore_loops, config):
        _, recorder, result = recorded_run(livermore_loops[2], config)
        document = chrome_trace(recorder)
        assert validate_chrome_trace(document, cycles=result.cycles) \
            == []

    def test_document_structure(self, livermore_loops, config):
        _, recorder, _ = recorded_run(livermore_loops[2], config)
        events = chrome_trace(recorder)["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X", "b", "e", "C"}
        names = {event["name"] for event in events if event["ph"] == "M"}
        assert "process_name" in names
        begins = sum(1 for e in events if e["ph"] == "b")
        ends = sum(1 for e in events if e["ph"] == "e")
        assert begins == ends > 0

    def test_streaming_recorder_rejected(self, livermore_loops, config):
        _, recorder, _ = recorded_run(livermore_loops[0], config,
                                      detail=False)
        with pytest.raises(ValueError):
            chrome_trace(recorder)

    def test_write_round_trips(self, livermore_loops, config, tmp_path):
        _, recorder, result = recorded_run(livermore_loops[0], config)
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), recorder)
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document, cycles=result.cycles) \
            == []
        assert document["otherData"]["cycles"] == result.cycles

    def test_counter_thinning(self, livermore_loops, config):
        _, recorder, _ = recorded_run(livermore_loops[0], config)
        dense = chrome_trace(recorder, counter_every=1)["traceEvents"]
        sparse = chrome_trace(recorder, counter_every=32)["traceEvents"]
        assert len(sparse) < len(dense)

    @pytest.mark.parametrize("document, fragment", [
        ("nope", "expected object"),
        ({"traceEvents": []}, "non-empty"),
        ({"traceEvents": [{"ph": "Q", "name": "x", "pid": 0}]},
         "unknown phase"),
        ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "ts": 1}]},
         "positive dur"),
        ({"traceEvents": [{"ph": "b", "name": "x", "pid": 0, "ts": 1,
                           "id": 7}]},
         "never closed"),
        ({"traceEvents": [{"ph": "e", "name": "x", "pid": 0, "ts": 1,
                           "id": 7}]},
         "without matching begin"),
        ({"traceEvents": ["x"]}, "not an object"),
        ({"traceEvents": [{"ph": "M", "pid": 0}]}, "missing name"),
        ({"traceEvents": [{"ph": "M", "name": "", "pid": 0}]},
         "missing name"),
        ({"traceEvents": [{"ph": "M", "name": "x"}]},
         "missing integer pid"),
        ({"traceEvents": [{"ph": "M", "name": "x", "pid": "0"}]},
         "missing integer pid"),
        ({"traceEvents": [{"ph": "M", "name": "x", "pid": True}]},
         "missing integer pid"),
        ({"traceEvents": [{"ph": "C", "name": "x", "pid": 0,
                           "args": {}}]},
         "bad ts"),
        ({"traceEvents": [{"ph": "C", "name": "x", "pid": 0, "ts": -1,
                           "args": {}}]},
         "bad ts"),
        ({"traceEvents": [{"ph": "C", "name": "x", "pid": 0, "ts": True,
                           "args": {}}]},
         "bad ts"),
        ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "ts": 1,
                           "dur": True}]},
         "positive dur"),
        ({"traceEvents": [{"ph": "C", "name": "x", "pid": 0, "ts": 1}]},
         "C event needs args"),
        ({"traceEvents": [{"ph": "b", "name": "x", "pid": 0, "ts": 1}]},
         "async begin without id"),
        ({"traceEvents": [
            {"ph": "b", "name": "x", "pid": 0, "ts": 1, "id": 7},
            {"ph": "b", "name": "x", "pid": 0, "ts": 2, "id": 7},
            {"ph": "e", "name": "x", "pid": 0, "ts": 3, "id": 7},
        ]},
         "async id 7 reopened"),
        # JSON has no NaN or Infinity, though json.dumps writes them.
        ({"traceEvents": [{"ph": "C", "name": "x", "pid": 0,
                           "ts": float("nan"), "args": {}}]},
         "bad ts"),
        ({"traceEvents": [{"ph": "C", "name": "x", "pid": 0,
                           "ts": float("inf"), "args": {}}]},
         "bad ts"),
        ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "ts": 1,
                           "dur": float("nan")}]},
         "positive dur"),
        ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "ts": 1,
                           "dur": float("inf")}]},
         "positive dur"),
    ])
    def test_validator_rejects(self, document, fragment):
        problems = validate_chrome_trace(document)
        assert any(fragment in problem for problem in problems), problems

    @pytest.mark.parametrize("field, value", [
        ("pid", 0), ("ts", 1), ("ts", 1.5), ("dur", 2), ("dur", 0.5),
    ])
    def test_validator_accepts_numbers(self, field, value):
        event = {"ph": "X", "name": "x", "pid": 0, "ts": 1, "dur": 1}
        event[field] = value
        assert validate_chrome_trace({"traceEvents": [event]}) == []

    def test_validator_catches_timestamps_beyond_the_run(
            self, livermore_loops, config):
        _, recorder, result = recorded_run(livermore_loops[0], config)
        document = chrome_trace(recorder)
        problems = validate_chrome_trace(document, cycles=1)
        assert any("beyond" in problem for problem in problems)


# ----------------------------------------------------------------------
# Trace diff
# ----------------------------------------------------------------------

class TestDiff:
    def test_self_diff_is_identical(self, livermore_loops, config):
        _, rec_a, res_a = recorded_run(livermore_loops[0], config)
        _, rec_b, res_b = recorded_run(livermore_loops[0], config)
        diff = diff_recorders(rec_a, rec_b, res_a, res_b)
        assert diff.identical
        assert diff.commit_divergence is None
        assert "no divergence" in diff.describe()

    def test_cross_engine_diff_finds_divergence(self, livermore_loops,
                                                config):
        workload = livermore_loops[2]
        _, rec_a, res_a = recorded_run(workload, config, "ruu-bypass")
        _, rec_b, res_b = recorded_run(workload, config, "tomasulo")
        diff = diff_recorders(rec_a, rec_b, res_a, res_b)
        assert not diff.identical
        assert diff.cycles_a == res_a.cycles
        assert diff.cycles_b == res_b.cycles
        assert any(a != b for a, b in diff.bucket_deltas.values())
        json.dumps(diff.to_json())

    def test_workload_mismatch_rejected(self, livermore_loops, config):
        _, rec_a, _ = recorded_run(livermore_loops[0], config)
        _, rec_b, _ = recorded_run(livermore_loops[1], config)
        with pytest.raises(ValueError):
            diff_recorders(rec_a, rec_b)

    def test_stage_diff_works_on_timeline_json(self, livermore_loops,
                                               config):
        workload = livermore_loops[0]
        builder = ENGINE_FACTORIES["ruu-bypass"]
        engine = builder(workload.program, config, workload.make_memory())
        engine.recorder = TraceRecorder()
        engine.run()
        events = Timeline.from_json(Timeline.of(engine.recorder).to_json())
        maps = {
            seq: events.events_for(seq) for seq in events.sequences()
        }
        deltas = diff_stage_events(maps, maps)
        assert deltas
        assert all(delta.delta == 0 for delta in deltas)

    def test_precise_engine_matches_the_iss(self, livermore_loops,
                                            config):
        workload = livermore_loops[2]
        _, recorder, _ = recorded_run(workload, config, "ruu-bypass")
        golden = FunctionalExecutor(
            workload.program, workload.make_memory()).run()
        assert diff_against_iss(recorder, golden) is None

    def test_imprecise_engine_diverges_from_the_iss(
            self, livermore_loops, config):
        workload = livermore_loops[2]
        _, recorder, _ = recorded_run(workload, config, "tomasulo")
        golden = FunctionalExecutor(
            workload.program, workload.make_memory()).run()
        divergence = diff_against_iss(recorder, golden)
        assert divergence is not None
        assert divergence.seq_a != divergence.seq_b


# ----------------------------------------------------------------------
# Parallel-runner integration ("trace": true path)
# ----------------------------------------------------------------------

class TestRunPointTrace:
    def test_traced_point_carries_attribution(self, livermore_loops):
        from repro.analysis.parallel import SimPoint, run_point
        workload = livermore_loops[0]
        config = MachineConfig(window_size=8)
        traced = run_point(
            SimPoint("ruu-bypass", workload, config, trace=True))
        attribution = traced.extra["attribution"]
        assert sum(attribution["buckets"].values()) == traced.cycles
        assert attribution["buckets"].get(UNACCOUNTED, 0) == 0
        plain = run_point(SimPoint("ruu-bypass", workload, config))
        assert "attribution" not in plain.extra
        assert plain.cycles == traced.cycles


def workload_name(workload):
    return workload.program.name
