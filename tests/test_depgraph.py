"""Tests for the dependence-graph and dataflow-limit analysis."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis.depgraph import (
    build_dependence_graph,
    dataflow_limit,
    dependence_distances,
    distance_summary,
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
        graph = build_dependence_graph(trace)
        assert graph.has_edge(0, 1)
        assert graph.edges[0, 1]["kind"] == "reg"
        assert graph.edges[0, 1]["register"] == "A1"

    def test_no_war_or_waw_edges(self):
        trace = trace_of("""
            A_IMM A1, 1
            A_IMM A2, 2
            MOV A3, A1
            A_IMM A1, 9        ; WAR on A1 vs MOV, WAW vs first A_IMM
            HALT
        """)
        graph = build_dependence_graph(trace)
        assert list(graph.predecessors(3)) == []

    def test_memory_raw_edge(self):
        trace = trace_of("""
            A_IMM A1, 100
            S_IMM S1, 2.0
            STORE_S A1[0], S1
            LOAD_S S2, A1[0]
            HALT
        """)
        graph = build_dependence_graph(trace)
        assert graph.has_edge(2, 3)
        assert graph.edges[2, 3]["kind"] == "mem"
        assert graph.edges[2, 3]["address"] == 100

    def test_latest_writer_wins(self):
        trace = trace_of("""
            A_IMM A1, 1
            A_IMM A1, 2
            MOV A2, A1
            HALT
        """)
        graph = build_dependence_graph(trace)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(0, 2)

    def test_graph_is_a_dag(self):
        import networkx as nx
        for workload in all_loops()[:4]:
            graph = build_dependence_graph(trace_of(workload))
            assert nx.is_directed_acyclic_graph(graph)


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
        graph = build_dependence_graph(trace)
        for a, b in zip(limit.critical_path_nodes,
                        limit.critical_path_nodes[1:]):
            assert graph.has_edge(a, b)

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
        slow = dataflow_limit(
            trace, MachineConfig().with_latency(FUClass.FLOAT_ADD, 60)
        )
        fast = dataflow_limit(trace)
        assert slow.critical_path_cycles > fast.critical_path_cycles


def test_import_repro_leaves_networkx_unloaded():
    """networkx is imported by ``build_dependence_graph``, its only
    user, so ``import repro`` does not pay for loading it."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert completed.stdout.split() == ["False"]
