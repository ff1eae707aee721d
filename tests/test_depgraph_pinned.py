"""The dependence analysis of every bundled workload is pinned.

For each workload of the quick and paper Livermore suites and the
synthetic suite, the value below is ``critical_path_cycles`` and the
sha256 of ``critical_path_nodes``, ``fu_cycles_on_path``, ``describe()``
and the sorted ``dependence_distances`` items.  They were recorded when
the analysis still built a graph-library DAG; the other depgraph tests
check only inequalities, so a rewrite that moves a path or a distance
fails here.
"""

import hashlib

import pytest

from repro.analysis import dataflow_limit, dependence_distances
from repro.trace import FunctionalExecutor
from repro.workloads import livermore_suite, synthetic_suite

PINNED = {
    "LLL1@quick": (
        127,
        "b39d2add42531f0ac28848850ef6d5ae135a59c8ce4fc8ac626357fb93f1aff9",
    ),
    "LLL2@quick": (
        251,
        "e5adaecbbfaab010574c414acfd8554025d9ca991c85bd0ef57aae2228c680df",
    ),
    "LLL3@quick": (
        390,
        "c3733c4591c89e78fe5f5ca96fea08e8c40abb8309dfad1509eebbfa0ea56be4",
    ),
    "LLL4@quick": (
        95,
        "1a2055b39e5bfcc870a40cbbb02fbdf61227c7e53ebcb9758798be5df506e5aa",
    ),
    "LLL5@quick": (
        673,
        "0b41f256495e2636626aacf32430a58259d0f5a7f5a736c6b9dc808dfe50a935",
    ),
    "LLL6@quick": (
        718,
        "ef00dc8e3f4362b8f4e8dc44db55531bdbb1b817924fbb537b66919b4e576c13",
    ),
    "LLL7@quick": (
        139,
        "884ffb16b9f45d0f78b530657526034aa50104241b81e90ba34112ed34b93a64",
    ),
    "LLL8@quick": (
        88,
        "e47d8adc151f28738939b36b0a7986671d0f324f5311fd888000e652188d2972",
    ),
    "LLL9@quick": (
        107,
        "f66d369732f239fe7984b4e776c35e34df5fb5c4aa8aa076b154262989324f1d",
    ),
    "LLL10@quick": (
        105,
        "67ece07745a48113a36974483dff16b62a92e7ef5a1425511f34c2a78f3a56b0",
    ),
    "LLL11@quick": (
        383,
        "043ba2f0268b11e952c640616aca63c3c8042455189709e7894d03254c003aba",
    ),
    "LLL12@quick": (
        147,
        "120751f48c1aba9bd391a7b3566486d99d096f669d595b57f0c4925043e1fbe0",
    ),
    "LLL13@quick": (
        118,
        "6713bbcc24be55b309c14f671bd2cf292b471fa2e43b2af77b79bfb37cac8d93",
    ),
    "LLL14@quick": (
        154,
        "12cde618d4db7c8dcef50e5c8ced50811edbce807d87d9cf38bb3d4f033cf3c2",
    ),
    "LLL1@paper": (
        1047,
        "4268e9405d419de67c1bec352e0cee120985f5ebc142b0a801fc9e23e0c34b8e",
    ),
    "LLL2@paper": (
        580,
        "83bffcaefa855ccf4503655ac9ce1adb5308c8be001032a6ea6fd67ee882b2be",
    ),
    "LLL3@paper": (
        5430,
        "1ee6cc29f5e0c044b18e7676182949d14504273c9722fa1bd3e706fd8d929124",
    ),
    "LLL4@paper": (
        551,
        "44d8a349e952a94e250ac1b3b08d1aa49051009d951e7ebef025913f597cdcdc",
    ),
    "LLL5@paper": (
        9123,
        "71173e7899e315e49155084926db81dd7e014f570115bed1735324688bd823c3",
    ),
    "LLL6@paper": (
        9438,
        "a927007d2b6d658d4c6d8837c9032334858c255eea2082d95d6670797edd116d",
    ),
    "LLL7@paper": (
        519,
        "e6ad263e67aec4d9e4be13e07430ce24337f6b5c31beca266d32680b86cd743d",
    ),
    "LLL8@paper": (
        200,
        "37500a3fa8a5f41213ce99b66cae1cb1d2be24709a87f1b3ffdd06a38f6b9346",
    ),
    "LLL9@paper": (
        317,
        "c1dc12011678852ea6f7b7d0b450d5e146879501d1fd2f72caa70cd3b0f66bfa",
    ),
    "LLL10@paper": (
        355,
        "a0109dedaf74a75fe63557c13b72c689b54e417e4cd14e23ce823d2691bc5973",
    ),
    "LLL11@paper": (
        5423,
        "7a47cae5e2163ebdf4173e989254ee74cebdc2a1a704b3c461a6f26c4baf874d",
    ),
    "LLL12@paper": (
        1827,
        "564612c439f1b9a594ea5f97e5dfec142bc9035396b2748a144f433879a5cf54",
    ),
    "LLL13@paper": (
        492,
        "dc19107580f37b05375464516503514dbdda56a626a8b2035c0458b6579c00b9",
    ),
    "LLL14@paper": (
        704,
        "7ed4b519fbcb13037003690fa1b849302d92627090d859b8c0d386d05e7981ab",
    ),
    "chain": (
        2623,
        "ae4b6e8aa45e470002b3021d3b3ca79016c3416af64390ee1e649e9c6a399dfe",
    ),
    "streams": (
        623,
        "cc1c4177ac6aba7759ad3db22e40f49e56841b9e60501eef17b064079812321a",
    ),
    "alias": (
        1699,
        "dab02a720882ec810dbc6252a23358d01f592a193c63a3b634a035261511cfd0",
    ),
    "branchy": (
        743,
        "9786af12d33b0593e142bcd8391378d8eea1b242eddeb8de56c921ddc27b25c7",
    ),
    "pressure": (
        503,
        "26e220dd114a738e0c2c004e2fb9b7f53a99f389a39493bd0e441863987924b9",
    ),
    "faultprobe": (
        68,
        "a8b51c8c26082cb275ceef4e3be4ead1b77a330e835a1b5d3ecfd32a7beed3a3",
    ),
}


def pinned_workloads():
    for preset in ("quick", "paper"):
        for workload in livermore_suite(preset):
            yield f"{workload.name}@{preset}", workload
    for workload in synthetic_suite():
        yield workload.name, workload


WORKLOADS = dict(pinned_workloads())


def analysis_pin(workload):
    trace = FunctionalExecutor(workload.program, workload.make_memory()).run()
    limit = dataflow_limit(trace)
    text = repr((
        limit.critical_path_nodes,
        sorted((fu.value, cycles)
               for fu, cycles in limit.fu_cycles_on_path.items()),
        limit.describe(),
        sorted(dependence_distances(trace).items()),
    ))
    return (
        limit.critical_path_cycles,
        hashlib.sha256(text.encode()).hexdigest(),
    )


def test_every_bundled_workload_is_pinned():
    assert sorted(WORKLOADS) == sorted(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_analysis_is_pinned(key):
    assert analysis_pin(WORKLOADS[key]) == PINNED[key]
