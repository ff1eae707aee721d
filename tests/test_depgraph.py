"""Tests for the producer-list and dataflow-limit analysis."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis.depgraph import (
    dataflow_limit,
    dependence_distances,
    distance_summary,
    producers,
)
from repro.isa import assemble
from repro.machine import MachineConfig
from repro.trace import FunctionalExecutor
from repro.workloads import all_loops, dependency_chain, independent_streams


def trace_of(source_or_workload):
    if isinstance(source_or_workload, str):
        executor = FunctionalExecutor(assemble(source_or_workload))
    else:
        executor = FunctionalExecutor(
            source_or_workload.program, source_or_workload.make_memory()
        )
    return executor.run()


class TestGraphConstruction:
    def test_raw_edge(self):
        trace = trace_of("""
            A_IMM A1, 1
            A_ADDI A2, A1, 1
            HALT
        """)
        assert 0 in producers(trace)[1]

    def test_no_war_or_waw_edges(self):
        trace = trace_of("""
            A_IMM A1, 1
            A_IMM A2, 2
            MOV A3, A1
            A_IMM A1, 9        ; WAR on A1 vs MOV, WAW vs first A_IMM
            HALT
        """)
        assert producers(trace)[3] == ()

    def test_memory_raw_edge(self):
        trace = trace_of("""
            A_IMM A1, 100
            S_IMM S1, 2.0
            STORE_S A1[0], S1
            LOAD_S S2, A1[0]
            HALT
        """)
        assert 2 in producers(trace)[3]

    def test_latest_writer_wins(self):
        trace = trace_of("""
            A_IMM A1, 1
            A_IMM A1, 2
            MOV A2, A1
            HALT
        """)
        assert 1 in producers(trace)[2]
        assert 0 not in producers(trace)[2]

    def test_graph_is_a_dag(self):
        """Every producer precedes its consumer, which is what lets one
        forward pass build the list and walk it in order."""
        for workload in all_loops()[:4]:
            for consumer, sources in enumerate(producers(trace_of(workload))):
                assert all(producer < consumer for producer in sources)

    def test_producer_read_twice_appears_once(self):
        trace = trace_of("""
            A_IMM A1, 3
            A_ADD A2, A1, A1
            HALT
        """)
        assert producers(trace)[1] == (0,)
        assert dependence_distances(trace) == {1: 1}


class TestDistances:
    def test_adjacent_dependency_distance_one(self):
        distances = dependence_distances(trace_of("""
            A_IMM A1, 1
            A_ADDI A1, A1, 1
            HALT
        """))
        assert distances[1] == 1

    def test_distance_counts_positive(self):
        for workload in all_loops()[:3]:
            distances = dependence_distances(trace_of(workload))
            assert all(distance > 0 for distance in distances)

    def test_summary_renders(self):
        text = distance_summary(trace_of(dependency_chain(50)))
        assert "true dependencies" in text
        assert "%" in text

    def test_summary_empty_trace(self):
        assert distance_summary(trace_of("HALT")) == "no dependencies"


class TestDataflowLimit:
    def test_serial_chain_is_latency_bound(self):
        # chain kernel: each iteration adds F_ADD(6) + F_MUL(7) = 13
        # cycles to the critical path.
        n = 40
        limit = dataflow_limit(trace_of(dependency_chain(n)))
        assert limit.critical_path_cycles >= n * 13

    def test_parallel_streams_have_high_ideal_ipc(self):
        chain = dataflow_limit(trace_of(dependency_chain(60)))
        streams = dataflow_limit(trace_of(independent_streams(60)))
        assert streams.ideal_ipc > 2 * chain.ideal_ipc

    def test_limit_dominates_every_engine(self):
        """No engine may beat the dataflow bound."""
        from repro.analysis import ENGINE_FACTORIES
        workload = all_loops()[0]
        trace = trace_of(workload)
        limit = dataflow_limit(trace)
        config = MachineConfig(window_size=50)
        for name in ("simple", "rstu", "ruu-bypass", "spec-ruu"):
            engine = ENGINE_FACTORIES[name](
                workload.program, config, workload.make_memory()
            )
            result = engine.run()
            assert result.cycles >= limit.critical_path_cycles, name

    def test_critical_path_is_a_real_path(self):
        trace = trace_of(all_loops()[2])
        limit = dataflow_limit(trace)
        sources = producers(trace)
        for a, b in zip(limit.critical_path_nodes,
                        limit.critical_path_nodes[1:]):
            assert a in sources[b]

    def test_empty_trace(self):
        limit = dataflow_limit(trace_of("HALT"))
        assert limit.critical_path_cycles == 0
        assert limit.ideal_ipc == 0.0

    def test_describe(self):
        text = dataflow_limit(trace_of(dependency_chain(10))).describe()
        assert "critical path" in text and "IPC" in text

    def test_respects_config_latencies(self):
        from repro.isa import FUClass
        trace = trace_of(dependency_chain(20))
        base = MachineConfig()
        slow = dataflow_limit(trace, base.with_(
            latencies={**base.latencies, FUClass.FLOAT_ADD: 60}
        ))
        fast = dataflow_limit(trace)
        assert slow.critical_path_cycles > fast.critical_path_cycles



STDLIB_ONLY_RUN = """
import importlib
import pkgutil
import sys

assert not any("site-packages" in entry for entry in sys.path), sys.path
import repro
from repro.analysis import dataflow_limit, distance_summary
from repro.machine import MachineConfig
from repro.trace import FunctionalExecutor
from repro.workloads import all_loops

modules = [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name != "repro.__main__"
]
for name in modules:
    importlib.import_module(name)
workload = all_loops()[2]
trace = FunctionalExecutor(workload.program, workload.make_memory()).run()
assert dataflow_limit(trace).critical_path_cycles > 0
assert "true dependencies" in distance_summary(trace)
engine = repro.ENGINE_FACTORIES["ruu-bypass"](
    workload.program, MachineConfig(window_size=12), workload.make_memory()
)
assert engine.run().instructions == len(trace)
print(len(modules))
"""


def test_package_runs_on_the_standard_library_alone():
    """With site-packages off the path (``python -S``), every ``repro``
    module imports and the dependence analysis and an engine run: the
    package has no third-party run-time dependency."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_ONLY_RUN],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert int(completed.stdout) > 50
