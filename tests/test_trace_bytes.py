"""Byte pins for the trace exports.

The detail ``TraceRecorder`` and the Chrome exporter may change how
they store and stream a run, never what they emit.  Each case below
hashes the compact JSON of ``chrome_trace(recorder)`` and of
``Timeline.of(recorder).to_json()``; the timeline goldens were computed
before the recorder moved to flat storage, and the Chrome goldens when
the ``in_flight`` counter's ``result_bus`` became the reservations
outstanding after each sampled cycle (it had counted every reservation
kept since the last prune), so any change to event order, key order,
values or stage maps fails here.
"""

import functools
import hashlib
import json

import pytest

from repro.analysis import ENGINE_FACTORIES
from repro.machine import MachineConfig
from repro.machine.timeline import Timeline
from repro.obs import TraceRecorder, chrome_trace
from repro.workloads import all_loops, fault_probe
from repro.workloads.generator import GeneratorSpec, generate_workload

CONFIG = MachineConfig(window_size=8)

#: case -> (sha256 of the Chrome JSON, sha256 of the timeline JSON).
GOLDEN = {
    "lll1-dispatch-stack": (
        "a4234e9bcd2ce6ab8cae5e2a6ff92ffc7c4d89318bf65d67f0ded41a6e23b1a6",
        "a987e498a10c02099a71110a12e7451117bb460aa2a08cc68788c746fd91bb7c",
    ),
    "lll1-future-file": (
        "e6c52e0de936d5f3cecb7bd81d27137cc3f25e558284d319cc4609b0c7f63630",
        "e12d3ecabae088cc3990d1499abc8e367603baf6a9265cea621d4589ab303d23",
    ),
    "lll1-history-buffer": (
        "bf77f8ca28c1e9755bbf3bfa1846287e7102135a3dc256f183125f11bbdbfca3",
        "e12d3ecabae088cc3990d1499abc8e367603baf6a9265cea621d4589ab303d23",
    ),
    "lll1-reorder-buffer": (
        "f2efcb5907dd528eb76dd2241d1060c22c8686cc723260a4d4be16b11c7342f8",
        "8f70b7689b51ad5aabe75b79650e71378c248856a67125fcefe703152ac227d3",
    ),
    "lll1-rob-bypass": (
        "5542c84ee25929a92119712b9222c02baa051fae8a7f9ac0b350e4fae3792765",
        "d156252ba9367635cdc1041ff0fa455b31d54f9ca8ac486085f1cd16461f335b",
    ),
    "lll1-rspool": (
        "61390a4b330b03de01a8bda37168b30c2992d350bc6b3fa77c1d2b58ec72069b",
        "bb3a068a90c877bb83550ddda52b2a76919198791a4bb3307bbb7c5a37575318",
    ),
    "lll1-rstu": (
        "832c5b80e2e9242d27f55f473d29274cd7201e2ba5e41f57213084768048c40a",
        "5e2295740cb9da1f4be10f30608b08a9c4fb4ff5c1922ba1200738e7ce715556",
    ),
    "lll1-ruu-bypass": (
        "ec7cb0c26e171aa094c7032797394aad5598bc439d900e68d4f205e5e1d0dd7b",
        "749b851591edc7edf62cce5b941cd67640a16dc3203d093646eb247ffe3b61bd",
    ),
    "lll1-ruu-limited": (
        "7005b6ba7a883d1df0dff890c0a3b47d4b865d9bf672a72ab65201c1679a6e91",
        "6aa7aca002883e908a24ad7074e1a5381b571cc59d3e1caf3fac1e9bf8cae2c6",
    ),
    "lll1-ruu-nobypass": (
        "6aa81c250e22d38e1cb59ed5a43b31658e174a54aa08b84b5410f04da4161b84",
        "6aa7aca002883e908a24ad7074e1a5381b571cc59d3e1caf3fac1e9bf8cae2c6",
    ),
    "lll1-simple": (
        "9e9de8a2eb45f75066a8d4a0d36f17e4c692015def9eeb8b7b5dd392a657e9f0",
        "4cb009793b8f643cb2b12be0a5faa2c78d046345a6bf2166e77036467fc7d432",
    ),
    "lll1-spec-ruu": (
        "58ee50c7885536f1de7eda7417ee3b37f69f96dc1060c94f741f662deea864b0",
        "749b851591edc7edf62cce5b941cd67640a16dc3203d093646eb247ffe3b61bd",
    ),
    "lll1-tagunit": (
        "372443c2c918e4a7fa6cf7b19313ba1bcbd1ae0b754408ab08beefa8a2c3713b",
        "909728dca6fc923c883bbb0ceadc955a63181a0f659e85725cec477996bd1c2a",
    ),
    "lll1-tomasulo": (
        "af5c7afdaa7158c1bb6a50d13873590dc5c97a2c4f654881e0b1f78301836116",
        "909728dca6fc923c883bbb0ceadc955a63181a0f659e85725cec477996bd1c2a",
    ),
    "spec-ruu-branchy": (
        "a1c07541252ba2e041025d04e55e84b356e1b93aefcea4a873ba0d7a65928ea5",
        "ab8db1e01a181d6e03ac9427b8e165c03aab0a83f637848c4c4c6b4b1000bb66",
    ),
    "faulted": (
        "a19a9136bc002cd71d815269d67d8d4008a1393c9a8d0a996e783f39d6b21aa5",
        "e6d81c5f55fa84e6f5532d0eaa3714c7a9fc33eea27ea8677ff275e71decf558",
    ),
    "counter-every-32": (
        "f6799f4fbe287a2b91730cce2ce0118eaff930ed7d3bf4f4b2fb9392a3285d3d",
        "daabf44352db821168317dc63f431795b423dd9f70f936ceca39996907b30eb0",
    ),
    "sample-every-4": (
        "392f484be6efd18c2ee49b4dd1cd2144c8ec7f57404f15f5c498fca9c5fd5460",
        "5d2e990409348f07d3085516128be5a40000501fbcf647fe79865f2c9154f90a",
    ),
}


def _sha(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _loops():
    return all_loops()


def _recorded(engine_name, workload, sample_every=1, fault=None):
    memory = workload.make_memory()
    if fault is not None:
        memory.inject_fault(fault)
    engine = ENGINE_FACTORIES[engine_name](workload.program, CONFIG, memory)
    engine.recorder = TraceRecorder(sample_every=sample_every)
    engine.run()
    return engine


def _case(name):
    """(engine, chrome document) for one named case."""
    if name.startswith("lll1-"):
        engine = _recorded(name[len("lll1-"):], _loops()[0])
        return engine, chrome_trace(engine.recorder)
    if name == "spec-ruu-branchy":
        workload = generate_workload(GeneratorSpec(
            streams=3, memory_fraction=0.25, working_set=64,
            branch_every=3, iterations=8, body_ops=16, seed=2,
        ))
        engine = _recorded("spec-ruu", workload)
        return engine, chrome_trace(engine.recorder)
    if name == "faulted":
        probe = fault_probe()
        engine = _recorded("ruu-bypass", probe, fault=probe.fault_address)
        assert engine.interrupt_record is not None
        return engine, chrome_trace(engine.recorder)
    if name == "counter-every-32":
        engine = _recorded("ruu-bypass", _loops()[2])
        return engine, chrome_trace(engine.recorder, counter_every=32)
    if name == "sample-every-4":
        engine = _recorded("tomasulo", _loops()[2], sample_every=4)
        return engine, chrome_trace(engine.recorder)
    raise KeyError(name)


def case_names():
    engines = sorted(name for name in ENGINE_FACTORIES
                     if not name.startswith("chaos-"))
    return [f"lll1-{name}" for name in engines] + [
        "spec-ruu-branchy", "faulted", "counter-every-32",
        "sample-every-4",
    ]


def digests(name):
    engine, document = _case(name)
    return _sha(document), _sha(Timeline.of(engine.recorder).to_json())


@pytest.mark.parametrize("name", case_names())
def test_export_bytes_are_pinned(name):
    assert digests(name) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(case_names())
