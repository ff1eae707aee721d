"""Tests for the pipeline timeline viewer over a detail recorder."""

import pytest

from repro.core import RUUEngine
from repro.interrupts import ReorderBufferEngine
from repro.isa import assemble
from repro.issue import RSTUEngine, SimpleEngine
from repro.machine import MachineConfig
from repro.machine.timeline import Timeline
from repro.obs import TraceRecorder

SOURCE = """
    S_IMM S1, 1.0
    F_ADD S2, S1, S1
    F_MUL S3, S2, S2
    A_IMM A1, 5
    HALT
"""


def run_with_timeline(cls, source=SOURCE, **kwargs):
    engine = cls(assemble(source), MachineConfig(window_size=8), **kwargs)
    engine.recorder = TraceRecorder()
    engine.run()
    return engine, Timeline.of(engine.recorder)


class TestRecording:
    def test_every_instruction_decoded(self):
        engine, timeline = run_with_timeline(RUUEngine)
        # 4 real instructions plus the HALT (which only decodes).
        assert timeline.sequences() == [0, 1, 2, 3, 4]
        for seq in timeline.sequences():
            assert "decode" in timeline.events_for(seq)

    def test_stage_order_is_causal(self):
        engine, timeline = run_with_timeline(RUUEngine)
        for seq in range(4):
            events = timeline.events_for(seq)
            assert events["decode"] <= events["issue"]
            assert events["issue"] <= events["dispatch"]
            assert events["dispatch"] < events["complete"]
            assert events["complete"] < events["commit"]

    def test_commit_order_is_program_order_on_ruu(self):
        engine, timeline = run_with_timeline(RUUEngine)
        commits = [
            timeline.events_for(seq)["commit"] for seq in range(4)
        ]
        assert commits == sorted(commits)

    def test_completion_out_of_order_on_ruu(self):
        # A1's transmit (seq 3) completes before the float chain.
        engine, timeline = run_with_timeline(RUUEngine)
        assert (
            timeline.events_for(3)["complete"]
            < timeline.events_for(2)["complete"]
        )

    def test_simple_engine_has_no_commit_stage(self):
        engine, timeline = run_with_timeline(SimpleEngine)
        assert "commit" not in timeline.events_for(1)
        assert "complete" in timeline.events_for(1)

    def test_dispatch_latency_reflects_dependencies(self):
        engine, timeline = run_with_timeline(RUUEngine)
        # F_MUL (seq 2) waits for F_ADD: dispatch at least 6 cycles
        # after issue.
        assert timeline.stage_delay(2, "issue", "dispatch") >= 5

    def test_delay_none_for_missing_stage(self):
        engine, timeline = run_with_timeline(SimpleEngine)
        assert timeline.stage_delay(0, "issue", "commit") is None

    def test_average_delay(self):
        engine, timeline = run_with_timeline(RUUEngine)
        assert timeline.average_delay("dispatch", "complete") >= 1.0
        assert timeline.average_delay("nope", "also-nope") == 0.0

    def test_rob_waits_visible(self):
        """The plain reorder buffer's dependency aggravation shows up
        as a larger issue->dispatch... issue==dispatch there, but
        complete->commit drain is visible instead."""
        engine, timeline = run_with_timeline(ReorderBufferEngine)
        assert timeline.average_delay("complete", "commit") >= 1.0


class TestRendering:
    def test_gantt_renders(self):
        engine, timeline = run_with_timeline(RUUEngine)
        chart = timeline.gantt(first=0, last=3)
        assert "cycles" in chart
        assert "#0" in chart and "#3" in chart
        assert "D" in chart and "R" in chart

    def test_gantt_empty_range(self):
        engine, timeline = run_with_timeline(RUUEngine)
        assert "(no events" in timeline.gantt(first=100, last=200)

    def test_gantt_compresses_long_runs(self):
        from repro.workloads import lll3
        workload = lll3()
        engine = RSTUEngine(workload.program, MachineConfig(window_size=8),
                            memory=workload.make_memory())
        engine.recorder = TraceRecorder()
        engine.run()
        chart = Timeline.of(engine.recorder).gantt(first=0, last=60,
                                                   width=40)
        assert "each column" in chart

    def test_summary_renders(self):
        engine, timeline = run_with_timeline(RUUEngine)
        text = timeline.summary()
        assert "decode" in text and "commit" in text


class TestOverhead:
    def test_no_timeline_attached_is_fine(self):
        engine = RUUEngine(assemble(SOURCE), MachineConfig(window_size=8))
        result = engine.run()
        assert result.instructions == 4

    def test_timeline_does_not_change_timing(self):
        plain = RUUEngine(assemble(SOURCE), MachineConfig(window_size=8))
        plain_result = plain.run()
        engine, _ = run_with_timeline(RUUEngine)
        assert engine.cycle == plain_result.cycles


class TestJsonRoundTrip:
    def test_round_trip_preserves_every_event(self):
        engine, timeline = run_with_timeline(RUUEngine)
        rebuilt = Timeline.from_json(timeline.to_json())
        assert rebuilt.sequences() == timeline.sequences()
        for seq in timeline.sequences():
            assert rebuilt.events_for(seq) == timeline.events_for(seq)

    def test_json_keys_are_strings(self):
        _, timeline = run_with_timeline(RUUEngine)
        payload = timeline.to_json()
        assert payload["schema"] == 1
        assert all(isinstance(k, str) for k in payload["events"])

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            Timeline.from_json({"schema": 99, "events": {}})


class TestRecorderView:
    def test_streaming_recorder_rejected(self):
        with pytest.raises(ValueError):
            Timeline.of(TraceRecorder(detail=False))
