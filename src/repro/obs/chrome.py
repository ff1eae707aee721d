"""Chrome trace-event JSON export (Perfetto / chrome://tracing).

Converts a detail-mode :class:`~repro.obs.events.TraceRecorder` into
the Trace Event Format's "JSON object" flavour: one process per run,
one thread track per functional unit (``X`` complete events from
dispatch to completion), async ``b``/``e`` slices for whole instruction
lifetimes (decode to retirement -- overlapping lifetimes render as the
window filling up), and ``C`` counter tracks for structure occupancy,
result-bus reservations, in-flight instructions and the cumulative
cycle-attribution buckets.  Timestamps are in "microseconds": one
simulated cycle = 1 us, so Perfetto's ruler reads directly in cycles.

The exporter has a matching :func:`validate_chrome_trace` used by tests
and CI, so the schema the viewer needs is pinned in-repo.
"""

from __future__ import annotations

import gc
import json
from typing import Dict, List, Optional

from .events import SAMPLE_FIELDS, TraceRecorder

#: Phase codes this exporter emits (subset of the Trace Event Format).
_PHASES = {"M", "X", "b", "e", "C"}

#: Thread ids: 0 is the retire track, FUs get stable ids from 1.
_RETIRE_TID = 0

#: Exact number types: the validator's fast path (bools are ints but
#: not numbers here).
_NUMBERS = {int, float}


def chrome_trace(recorder: TraceRecorder,
                 counter_every: int = 1) -> Dict[str, object]:
    """Build the trace-event document for one recorded run.

    ``counter_every`` thins the counter tracks (1 = every sample the
    recorder kept); slice events are never thinned.

    The document is acyclic and built in one pass over the recorder's
    columns, so the cyclic garbage collector is paused while it grows:
    otherwise each of its hundreds of thousands of event dicts would
    be re-scanned by every older-generation collection it triggers.
    """
    if not recorder.detail:
        raise ValueError(
            "chrome export needs a detail-mode TraceRecorder "
            "(TraceRecorder(detail=True))"
        )
    if counter_every < 1:
        raise ValueError("counter_every must be >= 1")
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _document(recorder, counter_every)
    finally:
        if collecting:
            gc.enable()


def _document(recorder: TraceRecorder,
              counter_every: int) -> Dict[str, object]:
    pid = 0
    engine = recorder.engine_name or "engine"
    workload = recorder.workload or "workload"
    events: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": f"{engine} on {workload}"},
    }]
    append = events.append

    # -- per-instruction slices, one pass over the seq columns ---------
    # FU thread ids go by first appearance in seq order; their metadata
    # events are spliced in ahead of the slices afterwards.
    fu_tids: Dict[str, int] = {}
    insts = recorder.inst_of[:recorder.seqs]
    # (pc, fu, text) per distinct instruction object, keyed by identity.
    described = {
        key: None if inst is None else recorder.inst_info(inst)
        for key, inst in dict(zip(map(id, insts), insts)).items()
    }
    for seq, key, row, retired in zip(
            range(recorder.seqs), map(id, insts),
            zip(*recorder.stage_cycles), recorder.retire_cycle):
        info = described[key]
        if info is None:
            pc, fu, text = -1, None, f"seq {seq}"
        else:
            pc, fu, text = info
            if fu is not None and fu not in fu_tids:
                fu_tids[fu] = len(fu_tids) + 1
        latest = max(row)
        if latest < 0:
            continue
        name = f"#{seq} {text}"
        args = {"seq": seq, "pc": pc}
        _, _, dispatch, complete, _ = row
        # Execution slice on the FU track (dispatch -> complete).
        if fu is not None and dispatch >= 0:
            end = complete if complete >= 0 else dispatch + 1
            append({
                "name": name, "cat": "execute", "ph": "X",
                "pid": pid, "tid": fu_tids[fu],
                "ts": dispatch, "dur": max(1, end - dispatch),
                "args": args,
            })
        # Whole-lifetime async slice (decode -> retire).
        first = min(row)
        if first < 0:
            first = min(cycle for cycle in row if cycle >= 0)
        last = retired if retired >= 0 else latest
        append({
            "name": name, "cat": "inst", "ph": "b", "id": seq,
            "pid": pid, "tid": _RETIRE_TID, "ts": first, "args": args,
        })
        append({
            "name": name, "cat": "inst", "ph": "e", "id": seq,
            "pid": pid, "tid": _RETIRE_TID, "ts": max(first + 1, last),
            "args": {},
        })

    # -- thread tracks: one per functional unit seen, plus retire ------
    threads: List[Dict[str, object]] = [{
        "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
        "args": {"name": f"fu:{fu}"},
    } for fu, tid in fu_tids.items()]
    threads.append({
        "name": "thread_name", "ph": "M", "pid": pid,
        "tid": _RETIRE_TID, "args": {"name": "retire"},
    })
    events[1:1] = threads

    # -- counter tracks ------------------------------------------------
    # Sample rows are flat, so every field of the kept samples is one
    # strided slice; the events are built column-wise and interleaved.
    index = 0
    for keys, rows in recorder.sample_runs:
        width = SAMPLE_FIELDS + len(keys)
        start = -index % counter_every * width
        step = counter_every * width
        index += len(rows) // width
        in_flight = [{
            "name": "in_flight", "ph": "C", "pid": pid, "tid": 0,
            "ts": cycle,
            "args": {"instructions": inflight, "result_bus": bus},
        } for cycle, bus, inflight in zip(rows[start::step],
                                           rows[start + 1::step],
                                           rows[start + 2::step])]
        if not keys:
            events += in_flight
            continue
        if len(keys) == 1:
            key, = keys
            args = [{key: value}
                    for value in rows[start + SAMPLE_FIELDS::step]]
        else:
            args = [dict(zip(keys, sample)) for sample in zip(*[
                rows[start + SAMPLE_FIELDS + column::step]
                for column in range(len(keys))])]
        occupancy = [{
            "name": "occupancy", "ph": "C", "pid": pid, "tid": 0,
            "ts": cycle, "args": sample,
        } for cycle, sample in zip(rows[start::step], args)]
        both = [None] * (2 * len(in_flight))
        both[0::2] = occupancy
        both[1::2] = in_flight
        events += both

    # Cumulative attribution buckets as one stacked counter track.
    tape = recorder.bucket_tape
    if tape and recorder.start_cycle is not None:
        start_cycle = recorder.start_cycle
        names = recorder.bucket_names
        running: Dict[str, int] = {}
        final = len(tape) - 1
        for offset, bucket_id in enumerate(tape):
            bucket = names[bucket_id]
            if bucket in running:
                running[bucket] += 1
            else:
                running[bucket] = 1
            if offset % counter_every == 0 or offset == final:
                append({
                    "name": "cycle_buckets", "ph": "C", "pid": pid,
                    "tid": 0, "ts": start_cycle + offset,
                    "args": dict(running),
                })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "engine": engine,
            "workload": workload,
            "cycles": recorder.final_cycles,
            "instructions": recorder.instructions,
            "generator": "repro.obs.chrome",
        },
    }


def write_chrome_trace(path: str, recorder: TraceRecorder,
                       counter_every: int = 1) -> Dict[str, object]:
    """Export ``recorder`` to ``path``; returns the document."""
    document = chrome_trace(recorder, counter_every=counter_every)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
    return document


def _is_int(value: object) -> bool:
    """An int that is not a bool (``True`` is an ``int`` in Python)."""
    return type(value) is int or (
        isinstance(value, int) and not isinstance(value, bool))


def _is_number(value: object) -> bool:
    return type(value) in _NUMBERS or (
        isinstance(value, (int, float)) and not isinstance(value, bool))


def validate_chrome_trace(document: object,
                          cycles: Optional[int] = None) -> List[str]:
    """Schema-check a trace document; returns a list of problems.

    Pins what Perfetto's JSON importer needs: a ``traceEvents`` list
    whose entries carry a known ``ph``, a ``pid``, a name, numeric
    non-negative ``ts`` (except metadata), paired async begin/end ids,
    and -- when ``cycles`` is given -- no timestamp beyond the run.
    Booleans are not numbers here.  One pass; an event's location is
    only formatted when it has a problem.
    """
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, expected object"]
    trace_events = document.get("traceEvents")
    if not isinstance(trace_events, list) or not trace_events:
        return ["traceEvents must be a non-empty list"]
    problems: List[str] = []
    open_async: Dict[object, int] = {}
    limit = float("inf") if cycles is None else cycles

    def problem(index: int, message: str) -> None:
        problems.append(f"traceEvents[{index}]: {message}")

    for index, event in enumerate(trace_events):
        if not isinstance(event, dict):
            problem(index, "not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASES:
            problem(index, f"unknown phase {phase!r}")
            continue
        name = event.get("name")
        if not name or not isinstance(name, str):
            problem(index, "missing name")
        # The exact-type tests are the fast path for valid events.
        pid = event.get("pid")
        if type(pid) is not int and not _is_int(pid):
            problem(index, "missing integer pid")
        if phase == "M":
            continue
        ts = event.get("ts")
        if type(ts) not in _NUMBERS and not _is_number(ts) or ts < 0:
            problem(index, f"bad ts {ts!r}")
        elif ts > limit:
            problem(index, f"ts {ts} beyond the {cycles}-cycle run")
        if phase == "C":
            if not isinstance(event.get("args"), dict):
                problem(index, "C event needs args")
        elif phase == "X":
            dur = event.get("dur")
            if type(dur) not in _NUMBERS and not _is_number(dur) \
                    or dur <= 0:
                problem(index, "X event needs positive dur")
        elif phase == "b":
            key = event.get("id")
            if key is None:
                problem(index, "async begin without id")
            elif key in open_async:
                problem(index, f"async id {key!r} reopened")
            else:
                open_async[key] = index
        elif phase == "e":
            key = event.get("id")
            if key not in open_async:
                problem(index, "async end without matching begin")
            else:
                del open_async[key]
    for key, index in sorted(open_async.items(), key=lambda kv: kv[1]):
        problem(index, f"async id {key!r} never closed")
    return problems
