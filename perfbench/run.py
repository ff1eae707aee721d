#!/usr/bin/env python3
"""The repository benchmark: run one workload, check its outputs, print
every metric by name and unit.

    python3 perfbench/run.py --workload zoo --seed 1 --seconds 15 --trace 0

Run it from the repository root.  Workloads: ``zoo``, ``trace``,
``sweep`` and ``serve`` (see perfbench/README.md).  ``--trace 0``
measures the workload and reports the ``end_to_end`` metrics of
BENCHMARK.json; ``--trace 1`` runs every layer's traced section and
reports the ``per_layer`` metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with host metadata and spans, goes to
``.perfbench_out/``.
"""

import time

#: Set-up time counts from here, before any import of the simulator.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import common  # noqa: E402

common.require_repro()

import wl_serve  # noqa: E402
import wl_sweep  # noqa: E402
import wl_trace  # noqa: E402
import wl_zoo  # noqa: E402
from repro.serve.protocol import build_workload_registry  # noqa: E402

WORKLOADS = {"zoo": wl_zoo, "trace": wl_trace, "sweep": wl_sweep,
             "serve": wl_serve}
#: Set-ups timed per run (this process plus fresh child processes);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3


@dataclass
class Context:
    """What every workload's set-up receives."""

    seed: int
    seconds: float
    digest: dict
    scratch: common.Scratch


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds() -> float:
    """Reference seconds since ``STARTED`` (see ``common.HostSpeed``)."""
    elapsed = common.clock() - STARTED
    speed = common.HostSpeed()
    speed.sample()
    speed.end_interval([elapsed])
    return speed.reference()[0]


def setup_sample(args) -> float:
    """One more set-up in a fresh process, timed the same way."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])["setup_s"]


def end_to_end(args, ctx):
    module = WORKLOADS[args.workload]
    state = module.setup(ctx)
    setup_s = setup_seconds()
    try:
        outcome, metrics, info = module.run(state, args.seconds)
    finally:
        module.teardown(state)
    # Before the set-up samples: they are children too.
    metrics["peak_rss_mb"] = common.peak_rss_mb()
    samples = [setup_s] + [setup_sample(args)
                           for _ in range(SETUP_SAMPLES - 1)]
    metrics["setup_s"] = common.median(samples)
    info["setup_samples_s"] = samples
    return outcome, metrics, info, {}


def per_layer(args, ctx):
    """Every layer's traced section, whichever workload was named."""
    outcome = common.Outcome()
    tracer = common.Tracer()
    span = tracer.open("workloads.build")
    wl_zoo.workloads_build(ctx.seed)
    build_workload_registry()
    tracer.close(span)
    metrics = {"workloads.build_s": tracer.total("workloads.build")}
    spans = {"workloads": tracer.spans}
    for name, module in WORKLOADS.items():
        tracer = common.Tracer()
        part, values = module.traced(ctx, tracer)
        outcome.merge(part)
        metrics.update(values)
        spans[name] = tracer.spans
    return outcome, metrics, {}, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    ctx = Context(seed=args.seed, seconds=args.seconds,
                  digest=common.load_digest(), scratch=common.Scratch())
    try:
        if args.setup_only:
            module = WORKLOADS[args.workload]
            state = module.setup(ctx)
            setup_s = setup_seconds()
            module.teardown(state)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        measure = per_layer if args.trace else end_to_end
        outcome, values, info, spans = measure(args, ctx)
    finally:
        ctx.scratch.cleanup()

    units = common.units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(values):
        raise SystemExit(
            f"perfbench: metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, unexpected "
            f"{sorted(set(values) - set(units))}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for line in info.get("speedup_vs_paper", ()):
        print(line)
    for problem in outcome.problems:
        print(f"failed: {problem}")
    common.write_result(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": common.host_metadata(),
            "correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "problems": outcome.problems,
            "metrics": metrics, "info": info,
            "span_fields": ["name", "start", "end", "parent", "request_id"],
            "spans": spans,
        },
    )
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
