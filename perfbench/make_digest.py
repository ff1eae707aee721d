#!/usr/bin/env python3
"""Regenerate perfbench/digest.json, the golden results digest.

    python3 perfbench/make_digest.py

Run from the repository root, and only after a change that is meant to
alter simulated results: the digest is the gate that every engine,
cache or service change must reproduce exactly.  It holds the sha256 of
``canonical_result_bytes`` for every (engine, Livermore loop, window)
point of ``zoo``, ``sweep`` and the ``serve`` hits, and the
``attribute_cycles`` bucket counts of every ``trace`` point.  Seeded
generated programs are checked against the golden ISS instead.
"""

import json
import sys

import common

common.require_repro()

import wl_serve  # noqa: E402
import wl_sweep  # noqa: E402
import wl_trace  # noqa: E402
import wl_zoo  # noqa: E402
from repro.analysis.parallel import run_point  # noqa: E402
from repro.machine.config import CRAY1_LIKE  # noqa: E402
from repro.serve.protocol import build_workload_registry, \
    parse_sim_request  # noqa: E402
from repro.workloads.suites import livermore_suite  # noqa: E402


def main() -> int:
    loops = livermore_suite("quick")
    by_name = {loop.name: loop for loop in loops}
    digest = {"zoo": {}, "trace": {}, "sweep": {}, "serve": {}}
    for loop in loops:
        for window in wl_zoo.WINDOWS:
            config = CRAY1_LIKE.with_(window_size=window)
            for name in wl_zoo.ENGINES:
                _, result, _, _ = wl_zoo.run_point(
                    common.Outcome(), name, loop, config)
                digest["zoo"][common.point_key(name, loop.name, config)] = \
                    common.result_sha(result)
    config = CRAY1_LIKE.with_(window_size=wl_trace.WINDOW)
    for label in wl_trace.LOOPS:
        for name in wl_zoo.ENGINES:
            attribution = wl_trace.trace_point(
                name, by_name[label], config)[2]
            digest["trace"][common.point_key(name, label, config)] = \
                json.loads(json.dumps(attribution.buckets))
    for point in wl_sweep.grid_points(loops):
        digest["sweep"][common.point_key(
            point.engine, point.workload.name, point.config)] = \
            common.result_sha(run_point(point))
    registry = build_workload_registry()
    for loop, window in wl_serve.HITS:
        point = parse_sim_request(
            {"workload": loop, "config": {"window_size": window}},
            registry).point
        digest["serve"][common.point_key(
            point.engine, loop, point.config)] = \
            common.result_sha(run_point(point))
    with open(common.DIGEST_PATH, "w", encoding="utf-8") as handle:
        json.dump(digest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {common.DIGEST_PATH}: "
          + ", ".join(f"{len(v)} {k}" for k, v in digest.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
