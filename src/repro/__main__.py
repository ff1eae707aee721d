"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE``        -- assemble and run an assembly file on an engine
* ``trace PROG``      -- run with the observability recorder: per-cycle
  attribution (every cycle in exactly one bucket) and a
  Perfetto-loadable Chrome trace (``--out trace.json``)
* ``diff PROG``       -- run a program on two engines
  (``--engines A,B``) and report the first commit-order divergence,
  per-bucket attribution deltas and per-instruction latency deltas
* ``lint FILE``       -- statically verify an assembly file (CFG,
  reaching definitions, config cross-checks, critical-path bound)
* ``compare [loops]`` -- compare all issue mechanisms on Livermore loops
* ``tables``          -- regenerate the paper's Tables 1-6
  (``--jobs N`` fans the sweeps over worker processes, ``--cache-dir``
  reuses results across runs)
* ``report``          -- generate a Markdown campaign report
* ``verify``          -- check engines against the golden model
* ``drill``           -- restart drill: inject a mid-program fault,
  checkpoint at the trap, restore into a fresh (possibly different)
  precise engine, resume, and verify against the golden model
* ``loops``           -- list the bundled workloads with their stats
* ``serve``           -- run the simulator as a persistent HTTP
  service (bounded admission queue, request coalescing, shared result
  cache, Prometheus ``/metrics``; see ``docs/service.md``)

``repro --version`` prints the package version.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .analysis import (
    ENGINE_FACTORIES,
    format_sweep_table,
    format_table1,
    paper_data,
    per_loop_baseline,
    run_suite,
    sweep_sizes,
)
from .isa import assemble
from .machine import MachineConfig, Memory, aggregate
from .machine.config import ConfigError
from .trace import FunctionalExecutor
from .workloads import LIVERMORE_FACTORIES, all_loops


def _unknown_engines(names) -> bool:
    """Print which of ``names`` no engine is registered under; True if
    any (the caller exits 2)."""
    unknown = [name for name in names if name not in ENGINE_FACTORIES]
    if unknown:
        print(f"unknown engine(s): {', '.join(unknown)}; "
              f"choose from {', '.join(sorted(ENGINE_FACTORIES))}")
    return bool(unknown)


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    with open(args.file) as handle:
        program = assemble(handle.read(), name=args.file)
    builder = ENGINE_FACTORIES[args.engine]
    engine = builder(program, args.config, Memory())
    recorder = None
    if args.timeline or args.timeline_json:
        from .obs import TraceRecorder

        recorder = engine.recorder = TraceRecorder()
    result = engine.run()
    print(result.describe())
    if engine.interrupt_record is not None:
        print(engine.interrupt_record.describe())
    if recorder is not None:
        from .machine.timeline import Timeline

        timeline = Timeline.of(recorder)
        if args.timeline:
            print()
            print(timeline.gantt(
                program=program, first=args.first, last=args.last
            ))
            print()
            print(timeline.summary())
        if args.timeline_json:
            with open(args.timeline_json, "w") as handle:
                json.dump(timeline.to_json(), handle, indent=1,
                          sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.timeline_json}")
    if args.registers:
        for name, value in sorted(engine.regs.nonzero().items()):
            print(f"  {name:>4s} = {value}")
    return 0


def _resolve_program(spec: str):
    """A positional PROG is a bundled workload name or an asm file.

    Returns ``(program, memory)`` with a fresh memory either way.
    """
    from .workloads import synthetic_suite

    registry = {
        workload.name: workload
        for workload in all_loops() + synthetic_suite()
    }
    if spec in registry:
        workload = registry[spec]
        return workload.program, workload.make_memory()
    with open(spec) as handle:
        return assemble(handle.read(), name=spec), Memory()


def _traced_run(program, memory, engine_name: str,
                config: MachineConfig, sample_every: int = 1):
    """Run one engine with a detail recorder; returns (recorder, result)."""
    from .obs import TraceRecorder

    engine = ENGINE_FACTORIES[engine_name](program, config, memory)
    recorder = TraceRecorder(detail=True, sample_every=sample_every)
    engine.recorder = recorder
    result = engine.run()
    return recorder, result


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import attribute_cycles, validate_chrome_trace, \
        write_chrome_trace

    program, memory = _resolve_program(args.prog)
    recorder, result = _traced_run(
        program, memory, args.engine, args.config,
        sample_every=args.sample_every,
    )
    attribution = attribute_cycles(result, recorder)
    print(result.describe())
    print(attribution.describe())
    if args.out:
        document = write_chrome_trace(args.out, recorder)
        problems = validate_chrome_trace(document, cycles=result.cycles)
        if problems:
            print(f"{args.out}: INVALID trace ({len(problems)} problems)")
            for problem in problems[:10]:
                print(f"  {problem}")
            return 1
        print(
            f"wrote {args.out} ({len(document['traceEvents'])} events; "
            f"open in https://ui.perfetto.dev or chrome://tracing)"
        )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from .obs import diff_against_iss, diff_recorders

    engines = [name.strip() for name in args.engines.split(",") if name]
    if len(engines) != 2:
        print("--engines needs exactly two comma-separated names "
              "(e.g. --engines ruu-bypass,tomasulo)")
        return 2
    if _unknown_engines(engines):
        return 2
    recorders = []
    for name in engines:
        program, memory = _resolve_program(args.prog)
        recorders.append(_traced_run(program, memory, name, args.config))
    (rec_a, res_a), (rec_b, res_b) = recorders
    diff = diff_recorders(rec_a, rec_b, res_a, res_b, top=args.top)
    print(diff.describe())
    if args.iss:
        program, memory = _resolve_program(args.prog)
        golden = FunctionalExecutor(program, memory).run()
        for name, recorder in zip(engines, (rec_a, rec_b)):
            divergence = diff_against_iss(recorder, golden)
            verdict = "matches the golden ISS commit order" \
                if divergence is None else (
                    f"diverges from the golden ISS at retirement "
                    f"#{divergence.index} ({divergence.text_a} vs "
                    f"{divergence.text_b})"
                )
            print(f"  {name:>16s}: {verdict}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(diff.to_json(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .isa import AssemblyError, ProgramError
    from .lint import lint_program

    try:
        with open(args.file) as handle:
            source = handle.read()
        program = assemble(source, name=args.file)
    except OSError as exc:
        print(f"{args.file}: error: {exc.strerror or exc}")
        return 1
    except (AssemblyError, ProgramError) as exc:
        print(f"{args.file}: error: {exc}")
        return 1
    report = lint_program(program, args.config)
    if args.json:
        print(report.to_json())
    else:
        print(report.describe())
    if not report.ok:
        return 1
    if args.strict and report.warnings:
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    numbers = args.loops or list(range(1, 15))
    workloads = [LIVERMORE_FACTORIES[n]() for n in numbers]
    results = {
        name: run_suite(name, workloads, args.config)
        for name in ENGINE_FACTORIES
    }
    baseline = results["simple"]
    print(f"{'engine':>16s} {'cycles':>9s} {'speedup':>8s} {'rate':>7s}")
    for name in sorted(results):
        result = results[name]
        print(
            f"{name:>16s} {result.cycles:9d} "
            f"{baseline.cycles / result.cycles:8.3f} "
            f"{result.issue_rate:7.3f}"
        )
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .analysis.parallel import ParallelRunner

    runner = ParallelRunner(jobs=args.jobs, cache_dir=args.cache_dir)
    loops = all_loops()
    table1 = per_loop_baseline(loops, runner=runner)
    print(format_table1(table1, paper_data.TABLE1_BASELINE))
    print()
    baseline = aggregate(table1)
    specs = [
        ("Table 2: RSTU (1 path)", "rstu", paper_data.RSTU_SIZES,
         paper_data.TABLE2_RSTU, {}),
        ("Table 3: RSTU (2 paths)", "rstu", paper_data.RSTU_SIZES,
         paper_data.TABLE3_RSTU_2PATH, {"dispatch_paths": 2}),
        ("Table 4: RUU with bypass", "ruu-bypass", paper_data.RUU_SIZES,
         paper_data.TABLE4_RUU_BYPASS, {}),
        ("Table 5: RUU without bypass", "ruu-nobypass",
         paper_data.RUU_SIZES, paper_data.TABLE5_RUU_NOBYPASS, {}),
        ("Table 6: RUU limited bypass", "ruu-limited",
         paper_data.RUU_SIZES, paper_data.TABLE6_RUU_LIMITED, {}),
    ]
    for title, engine, sizes, table, overrides in specs:
        sweep = sweep_sizes(engine, sizes, workloads=loops,
                            baseline=baseline, runner=runner, **overrides)
        print(format_sweep_table(sweep, table, title))
        print()
    if runner.points_run:
        print(
            f"[{runner.points_run} points over {runner.jobs} jobs: "
            f"{runner.wall_seconds:.1f}s wall, "
            f"{runner.host_seconds:.1f}s simulator time, "
            f"cache {runner.hits} hits / {runner.misses} misses]"
        )
        if not runner.fleet.clean:
            print(runner.fleet.describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import ReportSpec, build_report
    from .workloads import SUITES

    workloads = SUITES[args.suite]()
    spec = ReportSpec(window_size=args.window)
    text = build_report(workloads, spec)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .analysis.verify import verify_all
    from .workloads import SUITES

    if _unknown_engines(args.engines):
        return 2
    checks = verify_all(SUITES[args.suite](), args.config,
                        engines=args.engines or None)
    by_engine = {}
    for check in checks:
        by_engine.setdefault(check.engine, []).append(check)
    for name, group in by_engine.items():
        failures = [check for check in group if not check.passed]
        if failures:
            print(f"{name}: FAILED on {len(failures)} of {len(group)} "
                  f"workload(s)")
        else:
            print(f"{name}: OK -- bit-exact with the golden model on "
                  f"{len(group)} workload(s)")
        for check in failures:
            print(f"  {check.describe()}")
    return 0 if all(check.passed for check in checks) else 1


def _cmd_drill(args: argparse.Namespace) -> int:
    import json

    from .analysis.verify import restart_drill
    from .workloads import SUITES

    if _unknown_engines(args.engines):
        return 2
    checks = restart_drill(
        engines=args.engines or None,
        workloads=SUITES[args.suite](),
        config=args.config,
        checkpoint_dir=args.checkpoint_dir,
        cross_engine=not args.no_cross,
    )
    failures = [check for check in checks if not check.passed]
    cross = sum(check.restored_into != check.engine for check in checks)
    print(f"restart drill: {len(checks)} point(s), {cross} cross-engine "
          f"restore(s), {len(failures)} failure(s)")
    for check in failures:
        print(f"  {check.describe()}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"passed": not failures,
                       "points": [check.to_json() for check in checks]},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 1 if failures else 0


def _cmd_loops(args: argparse.Namespace) -> int:
    for workload in all_loops():
        executor = FunctionalExecutor(
            workload.program, workload.make_memory()
        )
        trace = executor.run()
        print(
            f"{workload.name:>6s}  {len(workload.program):4d} static / "
            f"{len(trace):6d} dynamic instructions  "
            f"({workload.description})"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    from .serve.app import ServeApp
    from .serve.service import SimService

    if args.access_log:
        logging.basicConfig(level=logging.INFO, format="%(message)s")
    service = SimService(
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        cache_dir=args.cache_dir,
        point_timeout=args.point_timeout,
        max_retries=args.max_retries,
        batch_max=args.batch_max,
    )
    app = ServeApp(service, request_timeout=args.request_timeout)
    try:
        return asyncio.run(app.run(args.host, args.port))
    except KeyboardInterrupt:
        return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sohi RUU reproduction: CRAY-1-like issue-logic "
                    "simulators",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="assemble and run a program")
    p_run.add_argument("file")
    p_run.add_argument("--engine", default="ruu-bypass",
                       choices=sorted(ENGINE_FACTORIES))
    p_run.add_argument("--window", type=int, default=12)
    p_run.add_argument("--registers", action="store_true",
                       help="dump non-zero registers after the run")
    p_run.add_argument("--timeline", action="store_true",
                       help="print a pipeline Gantt diagram and "
                            "stage-delay summary after the run")
    p_run.add_argument("--first", type=int, default=0,
                       help="first instruction (dynamic seq) shown in "
                            "the --timeline Gantt (default 0)")
    p_run.add_argument("--last", type=int, default=24,
                       help="last instruction (dynamic seq) shown in "
                            "the --timeline Gantt (default 24)")
    p_run.add_argument("--timeline-json", default=None, metavar="PATH",
                       help="record a timeline and write it as JSON "
                            "(machine-readable Gantt data)")
    p_run.set_defaults(func=_cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="run one engine with the observability recorder: full "
             "cycle attribution plus a Perfetto-loadable Chrome trace",
    )
    p_trace.add_argument("prog",
                         help="assembly file or bundled workload name "
                              "(e.g. LLL3; see 'repro loops')")
    p_trace.add_argument("--engine", default="ruu-bypass",
                         choices=sorted(ENGINE_FACTORIES))
    p_trace.add_argument("--window", type=int, default=12)
    p_trace.add_argument("--out", default=None, metavar="FILE",
                         help="write Chrome trace-event JSON here "
                              "(open in ui.perfetto.dev)")
    p_trace.add_argument("--sample-every", type=int, default=1,
                         help="occupancy sampling stride in cycles "
                              "(default 1: every cycle)")
    p_trace.set_defaults(func=_cmd_trace)

    p_diff = sub.add_parser(
        "diff",
        help="differential trace debugging: run a program on two "
             "engines and report where their pipelines diverge",
    )
    p_diff.add_argument("prog",
                        help="assembly file or bundled workload name")
    p_diff.add_argument("--engines", required=True, metavar="A,B",
                        help="exactly two engine names, comma-separated")
    p_diff.add_argument("--window", type=int, default=12)
    p_diff.add_argument("--top", type=int, default=10,
                        help="how many per-instruction latency deltas "
                             "to report (default 10)")
    p_diff.add_argument("--iss", action="store_true",
                        help="also check each engine's commit stream "
                             "against the golden functional ISS")
    p_diff.add_argument("--json", default=None, metavar="FILE",
                        help="write the machine-readable diff here")
    p_diff.set_defaults(func=_cmd_diff)

    p_lint = sub.add_parser(
        "lint", help="statically verify a program before running it"
    )
    p_lint.add_argument("file")
    p_lint.add_argument("--window", type=int, default=12,
                        help="window size for the config cross-checks")
    p_lint.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON diagnostics")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings, not just errors")
    p_lint.set_defaults(func=_cmd_lint)

    p_cmp = sub.add_parser("compare", help="compare all mechanisms")
    p_cmp.add_argument("loops", nargs="*", type=int)
    p_cmp.add_argument("--window", type=int, default=12)
    p_cmp.set_defaults(func=_cmd_compare)

    p_tab = sub.add_parser("tables", help="regenerate Tables 1-6")
    p_tab.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweeps (default 1: "
                            "in this process; 0: one per core)")
    p_tab.add_argument("--cache-dir", default=None,
                       help="on-disk result cache shared by every run "
                            "that names it")
    p_tab.set_defaults(func=_cmd_tables)

    p_report = sub.add_parser(
        "report", help="generate a Markdown campaign report"
    )
    p_report.add_argument("-o", "--output", default=None)
    p_report.add_argument("--suite", default="quick",
                          choices=["quick", "livermore", "paper",
                                   "synthetic"])
    p_report.add_argument("--window", type=int, default=12)
    p_report.set_defaults(func=_cmd_report)

    p_verify = sub.add_parser(
        "verify",
        help="check engines against the golden model",
    )
    p_verify.add_argument("engines", nargs="*",
                          help="engines to verify (default: all)")
    p_verify.add_argument("--suite", default="quick",
                          choices=["quick", "livermore", "paper",
                                   "synthetic"])
    p_verify.add_argument("--window", type=int, default=10)
    p_verify.set_defaults(func=_cmd_verify)

    p_drill = sub.add_parser(
        "drill",
        help="restart drill: fault -> checkpoint -> restore -> resume "
             "-> verify, for every precise engine",
    )
    p_drill.add_argument("engines", nargs="*",
                         help="engines to drill (default: all precise "
                              "engines)")
    p_drill.add_argument("--suite", default="livermore",
                         choices=["quick", "livermore", "paper",
                                  "synthetic"])
    p_drill.add_argument("--window", type=int, default=12)
    p_drill.add_argument("--checkpoint-dir", default=None,
                         help="keep checkpoint files here (default: a "
                              "temporary directory, discarded after)")
    p_drill.add_argument("--no-cross", action="store_true",
                         help="skip the cross-engine restore leg")
    p_drill.add_argument("--json", default=None, metavar="FILE",
                         help="write the machine-readable report here")
    p_drill.set_defaults(func=_cmd_drill)

    p_loops = sub.add_parser("loops", help="list bundled workloads")
    p_loops.set_defaults(func=_cmd_loops)

    p_serve = sub.add_parser(
        "serve",
        help="run the simulator as a persistent HTTP service",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="worker processes in the simulation pool")
    p_serve.add_argument("--queue-depth", type=int, default=32,
                         help="admission bound on pending points; "
                              "beyond it clients get 429 + Retry-After")
    p_serve.add_argument("--cache-dir", default=None,
                         help="shared on-disk result cache (default: "
                              "no persistent cache)")
    p_serve.add_argument("--point-timeout", type=float, default=120.0,
                         help="per-point wall clock before the worker "
                              "is killed")
    p_serve.add_argument("--request-timeout", type=float, default=None,
                         help="per-request deadline (default: derived "
                              "from the point timeout and retry budget)")
    p_serve.add_argument("--max-retries", type=int, default=1,
                         help="crash/timeout retries per point")
    p_serve.add_argument("--batch-max", type=int, default=None,
                         help="micro-batch cap per dispatch (default: "
                              "2x jobs)")
    p_serve.add_argument("--access-log", action="store_true",
                         help="print structured access-log lines")
    p_serve.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        if "window" in args:
            args.config = MachineConfig.from_json({"window_size": args.window})
    except ConfigError as exc:
        print(f"repro: --window: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
