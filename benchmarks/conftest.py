"""Benchmark fixtures: the Livermore suite, a shared baseline, and an
artifact directory where each bench writes its regenerated table."""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import run_suite
from repro.machine import CRAY1_LIKE
from repro.workloads import all_loops

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def loops():
    return all_loops()


@pytest.fixture(scope="session")
def baseline(loops):
    """The simple-issue machine on the whole suite (the Table 1 total)."""
    return run_suite("simple", loops, CRAY1_LIKE)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Write a regenerated table to the artifact directory and stdout."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
