"""Disk cache for simulation results.

Full table regeneration re-runs many identical (engine, config,
workload) simulations.  :class:`ResultCache` memoizes
:class:`~repro.machine.stats.SimResult` values on disk, keyed by a
content hash of the engine name, the machine configuration, and the
workload's program + initial memory -- so a cache entry can never serve
stale results after a workload or config edit.

Correctness guarantees (relied on by the parallel runner, which shares
one cache directory across worker processes):

* **Key completeness** -- the config part of the key is
  :meth:`MachineConfig.fingerprint`, the bytes of every field, so a
  field added to the config later perturbs the key; it can never be
  silently left out and serve stale results.
* **Atomic writes** -- :meth:`ResultCache.put` writes to a temp file in
  the cache directory and publishes it with ``os.replace``.  Readers
  never observe a half-written entry, and concurrent writers of the
  same key are harmless (the simulations are deterministic, so both
  write identical bytes).
* **Corrupt entries are misses** -- an unparseable or
  schema-incompatible entry (interrupted run, older cache layout) is
  deleted and the simulation re-run, instead of crashing every later
  read forever.
* **A broken cache never fails a sweep** -- an uncreatable or unwritable
  cache directory disables caching (one warning, then silence), and an
  unreadable entry (permissions, I/O error) degrades to a miss.  The
  cache is an accelerator; losing it costs time, never results.
* **Lossless round-trip** -- serialization walks
  ``dataclasses.fields(SimResult)``, so cached and fresh results carry
  the same payload (including ``extra``) modulo the explicit
  :data:`EXCLUDED_EXTRA_KEYS`.

Usage::

    cache = ResultCache(".repro-cache")
    result = cache.run(ENGINE_FACTORIES["rstu"], "rstu", workload, config)

Simulations are deterministic, which is what makes caching sound.
"""

from __future__ import annotations

import dataclasses
import json
import hashlib
import os
import tempfile
import threading
import warnings
from collections import Counter
from typing import Callable, Optional

# ``Program.encoding`` imports this module on first use; importing it
# here keeps that compile out of the first timed cache key.
from ..isa import encoding as _encoding  # noqa: F401
from ..machine.config import MachineConfig
from ..machine.interrupts import InterruptRecord
from ..machine.stats import SimResult
from ..workloads.base import Workload

#: Bump when the on-disk entry layout changes; older entries then read
#: as misses rather than mis-parsing.  3: ``interrupt`` records are
#: serialized (tagged dict) instead of excluded, and the memory
#: fingerprint covers injected fault addresses.
SCHEMA_VERSION = 3

#: ``SimResult.extra`` keys deliberately left out of cache entries.
#: ``from_cache`` is the cache's own provenance marker, stamped on the
#: way *out* so that the stored bytes stay equal to the fresh result's
#: payload.  (``interrupt`` round-trips losslessly since schema 3 --
#: see :meth:`InterruptRecord.to_json`.)
EXCLUDED_EXTRA_KEYS = frozenset({"from_cache"})

#: ``SimResult`` field names in declaration order: an entry carries
#: exactly these (plus ``schema``), so a field added later is cached
#: automatically and its absence in an older entry reads as a miss.
_RESULT_FIELDS = tuple(field.name for field in dataclasses.fields(SimResult))


def cache_key(engine_name: str, workload: Workload,
              config: MachineConfig) -> str:
    """Content hash identifying one simulation.

    Each input keeps its own fingerprint (``Program.encoding``,
    ``Memory.fingerprint``, ``MachineConfig.fingerprint``) until it
    changes, so deriving a key again costs one sha256.  The program's
    name is not hashed: programs that differ only in name share an
    entry, and a hit is stamped with the requester's name.
    """
    return hashlib.sha256(
        engine_name.encode()
        + workload.program.encoding
        + workload.initial_memory.fingerprint()
        + config.fingerprint()
    ).hexdigest()


def _extra_to_json(extra: dict) -> dict:
    """Serialize ``SimResult.extra``; interrupt records become tagged
    dicts so the round-trip is lossless."""
    payload = {}
    for key, entry in extra.items():
        if key in EXCLUDED_EXTRA_KEYS:
            continue
        if isinstance(entry, InterruptRecord):
            payload[key] = {"__interrupt__": entry.to_json()}
        else:
            payload[key] = entry
    return payload


def _extra_from_json(payload: dict) -> dict:
    """Inverse of :func:`_extra_to_json`."""
    extra = {}
    for key, entry in payload.items():
        if isinstance(entry, dict) and set(entry) == {"__interrupt__"}:
            extra[key] = InterruptRecord.from_json(entry["__interrupt__"])
        else:
            extra[key] = entry
    return extra


def serialize_result(result: SimResult) -> dict:
    """Public face of the lossless ``SimResult`` -> JSON-able mapping.

    The serving protocol (:mod:`repro.serve.protocol`) derives its wire
    format from this, so a result that crosses the network round-trips
    through exactly the machinery the cache already pins with tests.
    """
    return _result_to_json(result)


def deserialize_result(payload: dict) -> SimResult:
    """Inverse of :func:`serialize_result`; raises on incompatible data."""
    return _result_from_json(payload)


def _result_to_json(result: SimResult) -> dict:
    """Serialize every ``SimResult`` field (minus excluded extras)."""
    payload: dict = {"schema": SCHEMA_VERSION}
    for name in _RESULT_FIELDS:
        payload[name] = getattr(result, name)
    payload["stalls"] = dict(result.stalls)
    payload["extra"] = _extra_to_json(result.extra)
    return payload


def _result_from_json(payload: dict) -> SimResult:
    """Inverse of :func:`_result_to_json`; raises on incompatible data."""
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"cache entry schema {payload.get('schema')!r} != "
            f"{SCHEMA_VERSION}"
        )
    # KeyError (a missing field) => corrupt => miss
    kwargs = {name: payload[name] for name in _RESULT_FIELDS}
    kwargs["stalls"] = Counter(kwargs["stalls"])
    kwargs["extra"] = _extra_from_json(kwargs["extra"])
    return SimResult(**kwargs)


class ResultCache:
    """A directory of memoized simulation results.

    Safe to share between processes: writes are atomic and unreadable
    entries degrade to misses.  Also safe to share between *threads*
    within one process (the serving layer's request handlers all read
    through one cache): entry reads and writes are independent by
    construction, and the hit/miss counters and warn-once latch are
    guarded by a lock so concurrent readers never lose counts.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0
        #: Set when the cache directory itself is unusable; every
        #: operation is then a cheap no-op and the sweep runs uncached.
        self.disabled = False
        self._warned = False
        self._lock = threading.Lock()
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            self._degrade(f"cannot create cache directory: {exc}")

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def _warn_once(self, message: str) -> None:
        with self._lock:
            if self._warned:
                return
            self._warned = True
        warnings.warn(
                f"result cache {self.directory!r}: {message}; "
                f"continuing without it (simulations re-run, results "
                f"unaffected)",
                RuntimeWarning,
                stacklevel=4,
            )

    def _degrade(self, message: str) -> None:
        """Disable the cache for this process; the sweep continues."""
        self.disabled = True
        self._warn_once(message)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[SimResult]:
        if self.disabled:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                result = _result_from_json(json.loads(handle.read()))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError,
                ValueError):
            # Truncated, corrupt, or stale-schema entry: drop it and let
            # the caller re-simulate.  Another process may race us to the
            # delete; that is fine.
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        except OSError as exc:
            # Unreadable entry (permissions, I/O error, entry is a
            # directory, ...): a miss, not a failure.
            self._warn_once(f"cannot read entry: {exc}")
            return None
        result.extra["from_cache"] = True
        return result

    def put(self, key: str, result: SimResult) -> None:
        if self.disabled:
            return
        payload = json.dumps(_result_to_json(result))
        try:
            fd, tmp_path = tempfile.mkstemp(
                dir=self.directory, prefix=f".{key}.", suffix=".tmp"
            )
        except OSError as exc:
            self._degrade(f"cannot write entries: {exc}")
            return
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_path, self._path(key))
        except OSError as exc:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            self._warn_once(f"cannot publish entry: {exc}")
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise

    def run(
        self,
        builder: Callable,
        engine_name: str,
        workload: Workload,
        config: MachineConfig,
    ) -> SimResult:
        """Return the cached result or simulate and memoize."""
        key = cache_key(engine_name, workload, config)
        cached = self.get(key)
        if cached is not None:
            self._count(hit=True)
            cached.workload = workload.program.name
            return cached
        self._count(hit=False)
        engine = builder(workload.program, config, workload.make_memory())
        result = engine.run()
        # Interrupted runs cache too: injected fault addresses are part
        # of the memory fingerprint (schema 3) and the interrupt record
        # round-trips losslessly.
        self.put(key, result)
        return result

    def clear(self) -> int:
        """Delete all entries; returns how many were removed."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError as exc:
            self._degrade(f"cannot list entries: {exc}")
            return 0
        for name in names:
            if name.endswith(".json"):
                try:
                    os.remove(os.path.join(self.directory, name))
                    removed += 1
                except OSError as exc:
                    self._warn_once(f"cannot delete entry: {exc}")
        return removed
