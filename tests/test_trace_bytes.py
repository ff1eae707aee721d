"""Byte pins for the trace exports.

The detail ``TraceRecorder`` and the Chrome exporter may change how
they store and stream a run, never what they emit.  Each case below
hashes the compact JSON of ``chrome_trace(recorder)`` and of
``Timeline.of(recorder).to_json()``; the goldens were computed before
the recorder moved to flat storage, so any change to event order, key
order, values or stage maps fails here.
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
        "ea2021d074f1675e90ea51cdbb4fcdd42b9c086f818d4cbb488f99da46193870",
        "a987e498a10c02099a71110a12e7451117bb460aa2a08cc68788c746fd91bb7c",
    ),
    "lll1-future-file": (
        "bb6312d85a19f102f98a04135d6bda01ee1aeaff1be30051185d3d082dff2d16",
        "e12d3ecabae088cc3990d1499abc8e367603baf6a9265cea621d4589ab303d23",
    ),
    "lll1-history-buffer": (
        "b0b7c1ca55cd974fbd1cb317578847b5e01cb1d1e57ed8d41087561606957a39",
        "e12d3ecabae088cc3990d1499abc8e367603baf6a9265cea621d4589ab303d23",
    ),
    "lll1-reorder-buffer": (
        "af3122b61fd4ca733ec0f4674934a8f8c27b87570073a53e9ff602d80cce2dfa",
        "8f70b7689b51ad5aabe75b79650e71378c248856a67125fcefe703152ac227d3",
    ),
    "lll1-rob-bypass": (
        "342077eb54bb4ac129d5cba894c6a10f50bed6291586e14e372bfb0315c6d9fa",
        "d156252ba9367635cdc1041ff0fa455b31d54f9ca8ac486085f1cd16461f335b",
    ),
    "lll1-rspool": (
        "721bedd239032b86099f3c7e0e814c0f4c6be3035f729de821b5aea0934e0c79",
        "bb3a068a90c877bb83550ddda52b2a76919198791a4bb3307bbb7c5a37575318",
    ),
    "lll1-rstu": (
        "ad22d39ea761e4a9912611364165d8222fa55b1af71f369e7f3449e50dd7880b",
        "5e2295740cb9da1f4be10f30608b08a9c4fb4ff5c1922ba1200738e7ce715556",
    ),
    "lll1-ruu-bypass": (
        "0c09547957d6f9d7360da860c3f2e52d310bdd0e7415fef155498def8fda3620",
        "749b851591edc7edf62cce5b941cd67640a16dc3203d093646eb247ffe3b61bd",
    ),
    "lll1-ruu-limited": (
        "39a3b976990ec97fc657b9ca5876f18b35c19c07b43f9b0c1e06caf81e265551",
        "6aa7aca002883e908a24ad7074e1a5381b571cc59d3e1caf3fac1e9bf8cae2c6",
    ),
    "lll1-ruu-nobypass": (
        "7b5c48a99f1ffc8e513c02ef5b7b6f7aeca210dea55c90affafaa5a7100587ec",
        "6aa7aca002883e908a24ad7074e1a5381b571cc59d3e1caf3fac1e9bf8cae2c6",
    ),
    "lll1-simple": (
        "87b818f2072632378cf0375dfc3e3852b71db4b411dcca659d9020b95930cbc0",
        "4cb009793b8f643cb2b12be0a5faa2c78d046345a6bf2166e77036467fc7d432",
    ),
    "lll1-spec-ruu": (
        "115759d8357ec63793ef2decede33c6247917bf27162a266db547ff84bb0153f",
        "749b851591edc7edf62cce5b941cd67640a16dc3203d093646eb247ffe3b61bd",
    ),
    "lll1-tagunit": (
        "19a54e2d247b4a7561392a6348f428715753cdcf66b2402de311a419485fda64",
        "909728dca6fc923c883bbb0ceadc955a63181a0f659e85725cec477996bd1c2a",
    ),
    "lll1-tomasulo": (
        "511bd80784edaa20d6223e03f3145c2d20889c7ebad8fdd86ccdcee1d3f67a5b",
        "909728dca6fc923c883bbb0ceadc955a63181a0f659e85725cec477996bd1c2a",
    ),
    "spec-ruu-branchy": (
        "e097b42cb06461e1d5c8fa9e545925ccb18747c8291cc47d3d820e2c9502a87b",
        "ab8db1e01a181d6e03ac9427b8e165c03aab0a83f637848c4c4c6b4b1000bb66",
    ),
    "faulted": (
        "cc7ed6619f6d04fe2d82c17b9232310c2ab5000a1c9c143facece8b11465faf6",
        "e6d81c5f55fa84e6f5532d0eaa3714c7a9fc33eea27ea8677ff275e71decf558",
    ),
    "counter-every-32": (
        "0b6d0f4aa4deec232174d503ca31748d6335538de6fd219c5e30a8a6ec75a96a",
        "daabf44352db821168317dc63f431795b423dd9f70f936ceca39996907b30eb0",
    ),
    "sample-every-4": (
        "1f1f73033d0705fd49a39ae6c854d9f01c5ea86551a49f7e5cc6620e67f1cdfc",
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
