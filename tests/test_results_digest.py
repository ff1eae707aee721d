"""Results gate: every zoo Livermore point reproduces the golden digest.

``perfbench/digest.json`` holds the sha256 of ``canonical_result_bytes``
for every (engine, quick Livermore loop, window) point the benchmark's
``zoo`` workload runs.  Re-running them here makes any change to
simulated results fail tier-1, not only the benchmark.  The file is only
read; regenerate it with ``perfbench/make_digest.py`` when results are
meant to change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.sweeps import ENGINE_FACTORIES
from repro.machine.config import CRAY1_LIKE
from repro.serve.protocol import canonical_result_bytes
from repro.workloads.suites import livermore_suite

DIGEST_PATH = Path(__file__).resolve().parent.parent / "perfbench" \
    / "digest.json"
WINDOWS = (12, 50)
ENGINES = sorted(name for name in ENGINE_FACTORIES
                 if not name.startswith("chaos-"))


@pytest.fixture(scope="module")
def zoo_digest():
    with open(DIGEST_PATH, encoding="utf-8") as handle:
        return json.load(handle)["zoo"]


@pytest.fixture(scope="module")
def loops():
    return livermore_suite("quick")


def result_sha(result) -> str:
    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()


def test_digest_covers_the_whole_grid(zoo_digest, loops):
    expected = {
        f"{engine}|{loop.name}|w{window}"
        for engine in ENGINES for loop in loops for window in WINDOWS
    }
    assert set(zoo_digest) == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_reproduces_zoo_digest(engine, zoo_digest, loops):
    mismatches = []
    for loop in loops:
        for window in WINDOWS:
            config = CRAY1_LIKE.with_(window_size=window)
            result = ENGINE_FACTORIES[engine](
                loop.program, config, loop.make_memory()
            ).run()
            key = f"{engine}|{loop.name}|w{window}"
            if result_sha(result) != zoo_digest[key]:
                mismatches.append(key)
    assert not mismatches, f"results differ from the digest: {mismatches}"
