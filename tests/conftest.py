"""Shared fixtures: cached workloads, golden states, engine helpers."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.machine import MachineConfig
from repro.trace import reference_state
from repro.workloads import all_loops
from repro.workloads.synthetic import (
    branch_heavy,
    dependency_chain,
    fault_probe,
    independent_streams,
    memory_alias_kernel,
    register_pressure,
)

#: ``pytest --hypothesis-profile=ci``: a fixed-seed property run with 5x
#: the default examples (``tests/test_properties.py`` scales its per-test
#: budgets by the same factor).  Tier-1 keeps the default profile.
settings.register_profile(
    "ci",
    max_examples=5 * settings.get_profile("default").max_examples,
    derandomize=True,
    database=None,
)


@pytest.fixture(scope="session")
def livermore_loops():
    """The 14 Livermore workloads (instantiated once per session)."""
    return all_loops()


@pytest.fixture(scope="session")
def synthetic_workloads():
    return [
        dependency_chain(),
        independent_streams(),
        memory_alias_kernel(),
        branch_heavy(),
        register_pressure(),
        fault_probe(),
    ]


@pytest.fixture(scope="session")
def all_workloads(livermore_loops, synthetic_workloads):
    return list(livermore_loops) + list(synthetic_workloads)


@pytest.fixture(scope="session")
def golden(all_workloads):
    """Golden final state per workload name (functional executor)."""
    return {
        workload.name: reference_state(
            workload.program, workload.initial_memory
        )
        for workload in all_workloads
    }


@pytest.fixture
def config():
    """A small default machine configuration for unit tests."""
    return MachineConfig(window_size=8)
