"""Chrome trace-event JSON export (Perfetto / chrome://tracing).

Converts a detail-mode :class:`~repro.obs.events.TraceRecorder` into
the Trace Event Format's "JSON object" flavour: one process per run,
one thread track per functional unit (``X`` complete events from
dispatch to completion), async ``b``/``e`` slices for whole instruction
lifetimes (decode to retirement -- overlapping lifetimes render as the
window filling up), and ``C`` counter tracks for structure occupancy,
result-bus reservations outstanding after each sampled cycle,
in-flight instructions and the cumulative cycle-attribution buckets.
Timestamps are in "microseconds": one simulated cycle = 1 us, so
Perfetto's ruler reads directly in cycles.

The exporter has a matching :func:`validate_chrome_trace` used by tests
and CI, so the schema the viewer needs is pinned in-repo.
"""

from __future__ import annotations

import gc
import json
import math
from itertools import repeat
from typing import Dict, List, Optional

from .events import SAMPLE_FIELDS, TraceRecorder

#: Phase codes this exporter emits (subset of the Trace Event Format).
_PHASES = {"M", "X", "b", "e", "C"}

#: Thread ids: 0 is the retire track, FUs get stable ids from 1.
_RETIRE_TID = 0


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
    # Events are built as copies of a template with the varying fields
    # set: a dict copy costs less than the same keys inserted afresh,
    # and it keeps the template's key order.
    new_execute = {
        "name": None, "cat": "execute", "ph": "X", "pid": pid,
        "tid": None, "ts": None, "dur": None, "args": None,
    }.copy
    new_begin = {
        "name": None, "cat": "inst", "ph": "b", "id": None, "pid": pid,
        "tid": _RETIRE_TID, "ts": None, "args": None,
    }.copy
    new_end = {
        "name": None, "cat": "inst", "ph": "e", "id": None, "pid": pid,
        "tid": _RETIRE_TID, "ts": None, "args": None,
    }.copy

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
        decode, _, dispatch, complete, _ = row
        # Decode comes first in every instruction's life and the columns
        # keep first cycles, so a recorded decode is the earliest stage.
        if decode >= 0:
            first = decode
        elif max(row) < 0:
            continue
        else:
            first = min(cycle for cycle in row if cycle >= 0)
        name = f"#{seq} {text}"
        args = {"seq": seq, "pc": pc}
        # Execution slice on the FU track (dispatch -> complete).
        if fu is not None and dispatch >= 0:
            end = complete if complete >= 0 else dispatch + 1
            event = new_execute()
            event["name"] = name
            event["tid"] = fu_tids[fu]
            event["ts"] = dispatch
            event["dur"] = max(1, end - dispatch)
            event["args"] = args
            append(event)
        # Whole-lifetime async slice (decode -> retire).
        last = retired if retired >= 0 else max(row)
        event = new_begin()
        event["name"] = name
        event["id"] = seq
        event["ts"] = first
        event["args"] = args
        append(event)
        event = new_end()
        event["name"] = name
        event["id"] = seq
        event["ts"] = max(first + 1, last)
        event["args"] = {}
        append(event)

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
    # strided slice.
    new_occupancy = {
        "name": "occupancy", "ph": "C", "pid": pid, "tid": 0, "ts": None,
        "args": None,
    }.copy
    new_in_flight = {
        "name": "in_flight", "ph": "C", "pid": pid, "tid": 0, "ts": None,
        "args": None,
    }.copy
    index = 0
    for keys, rows in recorder.sample_runs:
        width = SAMPLE_FIELDS + len(keys)
        start = -index % counter_every * width
        step = counter_every * width
        index += len(rows) // width
        if not keys:
            args = repeat(None)
        elif len(keys) == 1:
            key, = keys
            args = [{key: value}
                    for value in rows[start + SAMPLE_FIELDS::step]]
        else:
            args = [dict(zip(keys, sample)) for sample in zip(*[
                rows[start + SAMPLE_FIELDS + column::step]
                for column in range(len(keys))])]
        for cycle, bus, inflight, sample in zip(
                rows[start::step], rows[start + 1::step],
                rows[start + 2::step], args):
            if keys:
                event = new_occupancy()
                event["ts"] = cycle
                event["args"] = sample
                append(event)
            event = new_in_flight()
            event["ts"] = cycle
            event["args"] = {"instructions": inflight, "result_bus": bus}
            append(event)

    # Cumulative attribution buckets as one stacked counter track.
    tape = recorder.bucket_tape
    if tape and recorder.start_cycle is not None:
        start_cycle = recorder.start_cycle
        names = recorder.bucket_names
        running: Dict[str, int] = {}
        new_buckets = {
            "name": "cycle_buckets", "ph": "C", "pid": pid, "tid": 0,
            "ts": None, "args": None,
        }.copy
        buckets = map(names.__getitem__, tape)
        if counter_every == 1:
            for cycle, bucket in enumerate(buckets, start_cycle):
                if bucket in running:
                    running[bucket] += 1
                else:
                    running[bucket] = 1
                event = new_buckets()
                event["ts"] = cycle
                event["args"] = running.copy()
                append(event)
        else:
            final = len(tape) - 1
            for offset, bucket in enumerate(buckets):
                if bucket in running:
                    running[bucket] += 1
                else:
                    running[bucket] = 1
                if offset % counter_every == 0 or offset == final:
                    event = new_buckets()
                    event["ts"] = start_cycle + offset
                    event["args"] = running.copy()
                    append(event)

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
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    """A finite int or float that is not a bool: JSON has no NaN or
    Infinity (``json.dumps`` writes them anyway)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def validate_chrome_trace(document: object,
                          cycles: Optional[int] = None) -> List[str]:
    """Schema-check a trace document; returns a list of problems.

    Pins what Perfetto's JSON importer needs: a ``traceEvents`` list
    whose entries carry a known ``ph``, a ``pid``, a name, finite
    non-negative ``ts`` (except metadata), paired async begin/end ids,
    and -- when ``cycles`` is given -- no timestamp beyond the run.
    Booleans are not numbers here.

    One pass.  An event shaped the way the exporter writes it (int
    ``pid``, ``ts`` and ``dur``, str name, dict ``args``) passes on
    exact type tests alone, its phase tested in order of frequency;
    any other event gets the full per-event checks, which find and
    word its problems.
    """
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, expected object"]
    trace_events = document.get("traceEvents")
    if not isinstance(trace_events, list) or not trace_events:
        return ["traceEvents must be a non-empty list"]
    problems: List[str] = []
    open_async: Dict[object, int] = {}
    limit = math.inf if cycles is None else cycles
    index = -1
    for event in trace_events:
        index += 1
        try:
            if type(event) is dict and type(event["pid"]) is int:
                name = event["name"]
                phase = event["ph"]
                if type(name) is not str or not name:
                    pass
                elif phase == "C":
                    ts = event["ts"]
                    if type(ts) is int and 0 <= ts <= limit \
                            and type(event["args"]) is dict:
                        continue
                elif phase == "b":
                    ts = event["ts"]
                    key = event["id"]
                    if type(ts) is int and 0 <= ts <= limit \
                            and key is not None and key not in open_async:
                        open_async[key] = index
                        continue
                elif phase == "e":
                    ts = event["ts"]
                    key = event["id"]
                    if type(ts) is int and 0 <= ts <= limit \
                            and key in open_async:
                        del open_async[key]
                        continue
                elif phase == "X":
                    ts = event["ts"]
                    dur = event["dur"]
                    if type(ts) is int and 0 <= ts <= limit \
                            and type(dur) is int and dur > 0:
                        continue
                elif phase == "M":
                    continue
        except KeyError:
            pass
        _check_event(index, event, limit, cycles, open_async, problems)
    for key, index in sorted(open_async.items(), key=lambda kv: kv[1]):
        problems.append(f"traceEvents[{index}]: async id {key!r} never "
                        f"closed")
    return problems


def _check_event(index: int, event: object, limit: float,
                 cycles: Optional[int], open_async: Dict[object, int],
                 problems: List[str]) -> None:
    """Every check on one event, with the async bookkeeping; appends its
    problems."""

    def problem(message: str) -> None:
        problems.append(f"traceEvents[{index}]: {message}")

    if not isinstance(event, dict):
        problem("not an object")
        return
    phase = event.get("ph")
    if phase not in _PHASES:
        problem(f"unknown phase {phase!r}")
        return
    name = event.get("name")
    if not name or not isinstance(name, str):
        problem("missing name")
    if not _is_int(event.get("pid")):
        problem("missing integer pid")
    if phase == "M":
        return
    ts = event.get("ts")
    if not _is_number(ts) or ts < 0:
        problem(f"bad ts {ts!r}")
    elif ts > limit:
        problem(f"ts {ts} beyond the {cycles}-cycle run")
    if phase == "C":
        if not isinstance(event.get("args"), dict):
            problem("C event needs args")
    elif phase == "X":
        dur = event.get("dur")
        if not _is_number(dur) or dur <= 0:
            problem("X event needs positive dur")
    elif phase == "b":
        key = event.get("id")
        if key is None:
            problem("async begin without id")
        elif key in open_async:
            problem(f"async id {key!r} reopened")
        else:
            open_async[key] = index
    elif phase == "e":
        key = event.get("id")
        if key not in open_async:
            problem("async end without matching begin")
        else:
            del open_async[key]
