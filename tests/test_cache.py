"""Tests for the simulation result cache."""

import copy
import dataclasses
import json
import os
import pickle

import pytest

from repro.analysis import ENGINE_FACTORIES, ParallelRunner, SimPoint, \
    paper_data
from repro.analysis.cache import (
    ResultCache,
    _result_from_json,
    _result_to_json,
    cache_key,
)
from repro.isa.opcodes import FUClass
from repro.machine import MachineConfig
from repro.workloads import all_loops, dependency_chain, fault_probe, lll3


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


CONFIG = MachineConfig(window_size=8)


def fresh_key(engine, workload, config):
    """``cache_key`` of deep copies: inputs that have never been
    fingerprinted, so nothing derived earlier can leak into the key."""
    return cache_key(engine, copy.deepcopy(workload), copy.deepcopy(config))


class TestKeying:
    def test_key_is_stable(self):
        workload = dependency_chain(30)
        assert cache_key("rstu", workload, CONFIG) == \
            cache_key("rstu", workload, CONFIG)

    def test_key_varies_with_engine(self):
        workload = dependency_chain(30)
        assert cache_key("rstu", workload, CONFIG) != \
            cache_key("simple", workload, CONFIG)

    def test_key_varies_with_config(self):
        workload = dependency_chain(30)
        assert cache_key("rstu", workload, CONFIG) != \
            cache_key("rstu", workload, CONFIG.with_(window_size=9))

    def test_key_varies_with_program(self):
        assert cache_key("rstu", dependency_chain(30), CONFIG) != \
            cache_key("rstu", dependency_chain(31), CONFIG)

    def test_key_varies_with_data(self):
        a = dependency_chain(30)
        b = dependency_chain(30)
        b.initial_memory.poke(1000, 42.0)
        assert cache_key("rstu", a, CONFIG) != cache_key("rstu", b, CONFIG)

    def test_every_config_field_perturbs_key(self):
        """The fingerprint is derived from ``dataclasses.fields``, so a
        field added to MachineConfig later can never be silently left
        out of the cache key and serve stale results."""
        workload = dependency_chain(30)
        base_key = cache_key("rstu", workload, CONFIG)
        # Every perturbation is a distinct config object: none may
        # share a fingerprint kept on another.
        assert cache_key("rstu", workload, CONFIG) == base_key
        for field in dataclasses.fields(MachineConfig):
            value = getattr(CONFIG, field.name)
            if field.name == "latencies":
                first = next(iter(FUClass))
                perturbed = CONFIG.with_latency(
                    first, CONFIG.latency(first) + 1
                )
            elif isinstance(value, int):
                perturbed = CONFIG.with_(**{field.name: value + 1})
            else:  # pragma: no cover - future non-int fields
                pytest.fail(
                    f"add a perturbation rule for new config field "
                    f"{field.name!r}"
                )
            assert cache_key("rstu", workload, perturbed) != base_key, \
                f"config field {field.name!r} does not perturb the key"
            assert cache_key("rstu", workload, perturbed) == \
                fresh_key("rstu", workload, perturbed), \
                f"config field {field.name!r}: kept fingerprint differs"
        assert cache_key("rstu", workload, CONFIG) == base_key

    def test_keys_are_pinned(self):
        """Keys are byte-identical to those of earlier releases, so
        existing cache directories keep hitting."""
        assert cache_key("rstu", dependency_chain(30), CONFIG) == \
            "2b1899267956f2a2817e6938560e80e0" \
            "caa50c70639f27d34ad8e4ef9a06eb5d"
        probe = fault_probe()
        probe.initial_memory.inject_fault(probe.fault_address)
        assert cache_key("ruu-bypass", probe, CONFIG) == \
            "4cc0c3e86b820d4fc2861cca350867cc" \
            "6543e1e97b2d7ca6bb05e271739abbdb"


class TestKeyMemo:
    """Each program, memory and config keeps its fingerprint until it
    changes, so a key derived again costs one hash.  Keys from kept
    fingerprints must equal those of never-fingerprinted copies."""

    def test_paper_grid_keys_equal_cache_key(self):
        loops = all_loops()
        grid = [("simple", CONFIG)]
        for engine, sizes, overrides in (
            ("rstu", paper_data.RSTU_SIZES, {}),
            ("rstu", paper_data.RSTU_SIZES, {"dispatch_paths": 2}),
            ("ruu-bypass", paper_data.RUU_SIZES, {}),
            ("ruu-nobypass", paper_data.RUU_SIZES, {}),
            ("ruu-limited", paper_data.RUU_SIZES, {}),
        ):
            grid += [(engine, CONFIG.with_(window_size=size, **overrides))
                     for size in sizes]
        keys = set()
        for engine, config in grid:
            for workload in loops:
                key = cache_key(engine, workload, config)
                assert key == fresh_key(engine, workload, config)
                keys.add(key)
        assert len(keys) == len(grid) * len(loops)

    def test_injected_faults_key_equals_cache_key(self):
        workload = fault_probe()
        clean_key = cache_key("ruu-bypass", workload, CONFIG)
        workload.initial_memory.inject_fault(workload.fault_address)
        faulted_key = cache_key("ruu-bypass", workload, CONFIG)
        assert faulted_key == fresh_key("ruu-bypass", workload, CONFIG)
        assert faulted_key != clean_key

    def test_equal_memories_share_a_key(self):
        a, b = dependency_chain(30), dependency_chain(30)
        assert a.initial_memory is not b.initial_memory
        assert cache_key("rstu", a, CONFIG) == cache_key("rstu", b, CONFIG) \
            == fresh_key("rstu", a, CONFIG)

    def test_memory_edited_between_calls_gets_a_new_key(self, tmp_path):
        """The memo lives for one ``run_points`` call, so a memory poked
        between calls is fingerprinted afresh: a miss, not a stale hit."""
        workload = dependency_chain(30)
        point = SimPoint("rstu", workload, CONFIG)
        runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path / "cache"))
        runner.run_points([point])
        old_key = cache_key("rstu", workload, CONFIG)
        workload.initial_memory.poke(1000, 42.0)
        runner.run_points([point])
        assert runner.hits == 0 and runner.misses == 2
        new_key = cache_key("rstu", workload, CONFIG)
        assert new_key != old_key
        assert sorted(os.listdir(tmp_path / "cache")) == \
            sorted([f"{old_key}.json", f"{new_key}.json"])

    @pytest.mark.parametrize("mutate", [
        lambda memory: memory.poke(1000, 42.0),
        lambda memory: memory.write(1000, 42.0),
        lambda memory: memory.write_array(1000, [42.0, 43.0]),
        lambda memory: memory.inject_fault(1002),
        lambda memory: memory.service_fault(1001),
    ], ids=["poke", "write", "write_array", "inject_fault",
            "service_fault"])
    def test_every_memory_mutator_drops_the_kept_fingerprint(self, mutate):
        """After a key has been derived, each mutator yields the key of
        a freshly built memory equal to the mutated one."""

        def build():
            workload = fault_probe()
            workload.initial_memory.inject_fault(1001)
            return workload

        stale, fresh = build(), build()
        old_key = cache_key("ruu-bypass", stale, CONFIG)
        mutate(stale.initial_memory)
        mutate(fresh.initial_memory)
        assert stale.initial_memory == fresh.initial_memory
        assert stale.initial_memory.faulting_addresses == \
            fresh.initial_memory.faulting_addresses
        new_key = cache_key("ruu-bypass", stale, CONFIG)
        assert new_key == cache_key("ruu-bypass", fresh, CONFIG)
        assert new_key != old_key

    def test_latencies_edited_in_place_change_the_key(self):
        config = MachineConfig(window_size=8)
        workload = dependency_chain(30)
        old_key = cache_key("rstu", workload, config)
        first = next(iter(FUClass))
        config.latencies[first] += 1
        new_key = cache_key("rstu", workload, config)
        assert new_key != old_key
        assert new_key == cache_key(
            "rstu", workload,
            CONFIG.with_latency(first, CONFIG.latency(first) + 1),
        )

    def test_kept_fingerprints_are_not_pickled(self):
        """Workers get each miss's key with its point, so shipping the
        fingerprints would only fatten every pickled job."""
        workload, config = fault_probe(), CONFIG.with_(window_size=12)
        before = len(pickle.dumps(workload)), len(pickle.dumps(config))
        key = cache_key("rstu", workload, config)
        assert (len(pickle.dumps(workload)),
                len(pickle.dumps(config))) == before
        assert cache_key("rstu", pickle.loads(pickle.dumps(workload)),
                         pickle.loads(pickle.dumps(config))) == key


class TestCaching:
    def test_miss_then_hit(self, cache):
        workload = dependency_chain(30)
        builder = ENGINE_FACTORIES["rstu"]
        first = cache.run(builder, "rstu", workload, CONFIG)
        second = cache.run(builder, "rstu", workload, CONFIG)
        assert cache.misses == 1 and cache.hits == 1
        assert second.cycles == first.cycles
        assert second.instructions == first.instructions
        assert second.stalls == first.stalls
        assert second.extra.get("from_cache")

    def test_cached_equals_fresh(self, cache):
        workload = lll3(n=50)
        builder = ENGINE_FACTORIES["ruu-bypass"]
        cache.run(builder, "ruu-bypass", workload, CONFIG)
        cached = cache.run(builder, "ruu-bypass", workload, CONFIG)
        fresh = builder(workload.program, CONFIG,
                        workload.make_memory()).run()
        assert cached.cycles == fresh.cycles
        assert cached.issue_rate == fresh.issue_rate

    def test_interrupted_runs_cache_and_round_trip(self, cache):
        """Since schema 3, injected fault addresses are part of the key
        and the interrupt record round-trips, so interrupted runs are
        cacheable -- and servicing the fault changes the key."""
        workload = fault_probe()
        workload.initial_memory.inject_fault(workload.fault_address)
        builder = ENGINE_FACTORIES["ruu-bypass"]
        first = cache.run(builder, "ruu-bypass", workload, CONFIG)
        second = cache.run(builder, "ruu-bypass", workload, CONFIG)
        assert cache.misses == 1 and cache.hits == 1
        assert second.extra.get("from_cache")
        restored = second.extra["interrupt"]
        assert restored.same_event(first.extra["interrupt"])
        assert restored.claims_precise
        # A fault-free copy of the same workload must not hit the
        # interrupted entry.
        workload.initial_memory.service_fault(workload.fault_address)
        clean = cache.run(builder, "ruu-bypass", workload, CONFIG)
        assert cache.misses == 2
        assert clean.interrupts == 0

    def test_hit_reports_the_requesting_programs_name(self, cache,
                                                      tmp_path):
        """The key hashes a program's instructions, not its name, so a
        renamed copy hits the original's entry -- and must still report
        its own name."""
        workload = dependency_chain(30)
        renamed = dataclasses.replace(
            workload,
            program=dataclasses.replace(workload.program, name="renamed"),
        )
        builder = ENGINE_FACTORIES["rstu"]
        assert cache.run(builder, "rstu", workload, CONFIG).workload \
            == workload.program.name
        hit = cache.run(builder, "rstu", renamed, CONFIG)
        assert cache.hits == 1
        assert hit.extra["from_cache"] and hit.workload == "renamed"

        runner = ParallelRunner(jobs=1, cache_dir=cache.directory)
        outcomes = runner.run_points_settled(
            [SimPoint("rstu", renamed, CONFIG),
             SimPoint("rstu", workload, CONFIG)])
        assert [o.cache_hit for o in outcomes] == [True, True]
        assert [o.result.workload for o in outcomes] == \
            ["renamed", workload.program.name]

    def test_clear(self, cache):
        workload = dependency_chain(30)
        cache.run(ENGINE_FACTORIES["simple"], "simple", workload, CONFIG)
        assert cache.clear() == 1
        cache.run(ENGINE_FACTORIES["simple"], "simple", workload, CONFIG)
        assert cache.misses == 2


class TestAtomicityAndCorruption:
    def _entry_path(self, cache, workload, engine="rstu"):
        return cache._path(cache_key(engine, workload, CONFIG))

    def test_put_leaves_no_temp_files(self, cache):
        workload = dependency_chain(30)
        cache.run(ENGINE_FACTORIES["rstu"], "rstu", workload, CONFIG)
        leftovers = [name for name in os.listdir(cache.directory)
                     if name.endswith(".tmp")]
        assert leftovers == []
        assert os.path.exists(self._entry_path(cache, workload))

    @pytest.mark.parametrize("garbage", [
        "",                      # interrupted before any byte was written
        "{\"engine\": \"rs",     # truncated mid-write
        "not json at all",
        "[1, 2, 3]",             # parseable but the wrong shape
        json.dumps({"schema": 999, "engine": "rstu"}),  # future schema
        json.dumps({"schema": 2}),                      # missing fields
    ])
    def test_corrupt_entry_is_a_miss(self, cache, garbage):
        workload = dependency_chain(30)
        builder = ENGINE_FACTORIES["rstu"]
        fresh = cache.run(builder, "rstu", workload, CONFIG)
        path = self._entry_path(cache, workload)
        with open(path, "w") as handle:
            handle.write(garbage)
        result = cache.run(builder, "rstu", workload, CONFIG)
        assert cache.hits == 0 and cache.misses == 2
        assert result.cycles == fresh.cycles
        # the corrupt entry was replaced by a good one: next read hits
        again = cache.run(builder, "rstu", workload, CONFIG)
        assert cache.hits == 1
        assert again.cycles == fresh.cycles

    def test_corrupt_entry_is_deleted_on_get(self, cache):
        workload = dependency_chain(30)
        cache.run(ENGINE_FACTORIES["rstu"], "rstu", workload, CONFIG)
        path = self._entry_path(cache, workload)
        with open(path, "w") as handle:
            handle.write("garbage")
        assert cache.get(cache_key("rstu", workload, CONFIG)) is None
        assert not os.path.exists(path)


class TestDegradation:
    """Cache trouble can never fail a sweep: a broken directory
    disables the cache (one warning), an unreadable entry is a miss.

    These tests run as root in CI containers, where permission bits are
    ignored -- so the failures are provoked structurally (a *file*
    where a directory must be, and vice versa), which no euid can
    bypass."""

    def test_uncreatable_directory_disables_cache(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir must go")
        with pytest.warns(RuntimeWarning, match="continuing without"):
            cache = ResultCache(str(blocker / "cache"))
        assert cache.disabled
        workload = dependency_chain(30)
        result = cache.run(
            ENGINE_FACTORIES["rstu"], "rstu", workload, CONFIG
        )
        assert result.cycles > 0
        assert cache.misses == 1 and cache.hits == 0

    def test_unreadable_entry_is_a_miss(self, cache):
        workload = dependency_chain(30)
        builder = ENGINE_FACTORIES["rstu"]
        fresh = cache.run(builder, "rstu", workload, CONFIG)
        path = cache._path(cache_key("rstu", workload, CONFIG))
        os.remove(path)
        os.mkdir(path)  # a directory where the entry file should be
        try:
            with pytest.warns(RuntimeWarning, match="cannot read"):
                again = cache.run(builder, "rstu", workload, CONFIG)
        finally:
            os.rmdir(path)
        assert again.cycles == fresh.cycles
        assert cache.misses == 2 and cache.hits == 0
        assert not cache.disabled  # only that entry degraded

    def test_warning_fires_once(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.warns(RuntimeWarning):
            cache = ResultCache(str(blocker / "cache"))
        workload = dependency_chain(30)
        with warnings_as_errors():
            cache.run(ENGINE_FACTORIES["rstu"], "rstu", workload, CONFIG)
            cache.run(ENGINE_FACTORIES["rstu"], "rstu", workload, CONFIG)
            assert cache.clear() == 0

    def test_unwritable_entry_degrades_put(self, cache):
        workload = dependency_chain(30)
        builder = ENGINE_FACTORIES["rstu"]
        key = cache_key("rstu", workload, CONFIG)
        os.mkdir(cache._path(key))  # unreadable entry + os.replace fails
        try:
            # One warning covers the whole degradation (warn-once); both
            # the blocked read and the blocked publish stay non-fatal.
            with pytest.warns(RuntimeWarning, match="continuing without"):
                cache.run(builder, "rstu", workload, CONFIG)
        finally:
            os.rmdir(cache._path(key))
        assert cache.misses == 1
        leftovers = [name for name in os.listdir(cache.directory)
                     if name.endswith(".tmp")]
        assert leftovers == []


class warnings_as_errors:
    def __enter__(self):
        import warnings
        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("error")
        return self

    def __exit__(self, *exc_info):
        return self._ctx.__exit__(*exc_info)


class TestRoundTrip:
    def test_round_trip_is_lossless(self):
        """Serialize -> JSON text -> deserialize reproduces the result
        of a real simulation exactly, ``extra`` included."""
        workload = lll3(n=50)
        engine = ENGINE_FACTORIES["ruu-bypass"](
            workload.program, CONFIG, workload.make_memory()
        )
        fresh = engine.run()
        assert fresh.extra, "expected engine telemetry in extra"
        payload = json.loads(json.dumps(_result_to_json(fresh)))
        restored = _result_from_json(payload)
        assert restored == fresh

    def test_round_trip_covers_every_simresult_field(self):
        """A field added to SimResult later is serialized automatically
        (and its absence in old entries reads as corrupt -> miss)."""
        from repro.machine.stats import SimResult

        payload = _result_to_json(
            SimResult(engine="simple", workload="w", cycles=1,
                      instructions=1)
        )
        for field in dataclasses.fields(SimResult):
            assert field.name in payload

    def test_cached_result_preserves_extra(self, cache):
        workload = lll3(n=50)
        builder = ENGINE_FACTORIES["ruu-bypass"]
        fresh = cache.run(builder, "ruu-bypass", workload, CONFIG)
        cached = cache.run(builder, "ruu-bypass", workload, CONFIG)
        assert cached.extra.pop("from_cache") is True
        assert cached.extra == fresh.extra
        assert cached.stalls == fresh.stalls
        assert cached == fresh
