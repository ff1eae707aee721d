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
* **Lossless round-trip** -- an entry is
  :meth:`SimResult.to_json` plus the :data:`SCHEMA_VERSION` tag, so
  cached and fresh results carry the same payload (including
  ``extra``); only the ``from_cache`` flag that :meth:`ResultCache.get`
  stamps on the way out is never stored.

Usage::

    cache = ResultCache(".repro-cache")
    key = cache_key("rstu", workload, config)
    result = cache.get(key)
    if result is None:
        result = run_point(SimPoint("rstu", workload, config))
        cache.put(key, result)

:class:`~repro.analysis.parallel.ParallelRunner` does exactly this for
each point, answering hits in the caller.  Simulations are
deterministic, which is what makes caching sound.
"""

from __future__ import annotations

import json
import hashlib
import os
import tempfile
import threading
import warnings
from typing import Optional

from ..machine.config import MachineConfig
from ..machine.stats import SimResult
from ..workloads.base import Workload

#: Bump when the on-disk entry layout changes; older entries then read
#: as misses rather than mis-parsing.  3: ``interrupt`` records are
#: serialized (tagged dict) instead of excluded, and the memory
#: fingerprint covers injected fault addresses.
SCHEMA_VERSION = 3


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


class ResultCache:
    """A directory of memoized simulation results.

    Safe to share between processes: writes are atomic and unreadable
    entries degrade to misses.  Also safe to share between *threads*
    within one process (the serving layer's request handlers all read
    through one cache): entry reads and writes are independent by
    construction, and the warn-once latch is guarded by a lock.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        #: Set when the cache directory itself is unusable; every
        #: operation is then a cheap no-op and the sweep runs uncached.
        self.disabled = False
        self._warned = False
        self._lock = threading.Lock()
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            self._degrade(f"cannot create cache directory: {exc}")

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
                payload = json.loads(handle.read())
            if payload["schema"] != SCHEMA_VERSION:
                raise ValueError(f"entry schema {payload['schema']!r}")
            result = SimResult.from_json(payload)
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
        payload = json.dumps({"schema": SCHEMA_VERSION, **result.to_json()})
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
        except BaseException as exc:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            if not isinstance(exc, OSError):
                raise
            self._warn_once(f"cannot publish entry: {exc}")

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
