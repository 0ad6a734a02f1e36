"""Tests for the serving layer's content-addressed result cache."""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import threading
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from repro.core.errors import InvalidInstanceError
from repro.core.instance import StripPackingInstance
from repro.engine import run
from repro.service.cache import DEFAULT_CACHE_BYTES, CacheStats, ResultCache, _LruMap
from repro.service.server import encode_report
from repro.workloads.random_rects import powerlaw_rects


class TestBasics:
    def test_roundtrip_and_counters(self):
        cache = ResultCache(1024)
        assert cache.get("k") is None
        cache.put("k", b"payload")
        assert cache.get("k") == b"payload"
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
        assert stats.entries == 1 and stats.bytes == len(b"payload")
        assert stats.hit_rate == pytest.approx(0.5)

    def test_put_refreshes_value_and_bytes(self):
        cache = ResultCache(1024)
        cache.put("k", b"short")
        cache.put("k", b"a-longer-payload")
        assert cache.get("k") == b"a-longer-payload"
        assert cache.stats().bytes == len(b"a-longer-payload")
        assert cache.stats().entries == 1

    def test_non_bytes_value_rejected(self):
        with pytest.raises(InvalidInstanceError, match="bytes"):
            ResultCache(64).put("k", "text")  # type: ignore[arg-type]

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidInstanceError, match="max_bytes"):
            ResultCache(-1)

    def test_default_budget(self):
        assert ResultCache().max_bytes == DEFAULT_CACHE_BYTES

    def test_get_memory_counts_hits_but_never_misses(self):
        cache = ResultCache(64)
        assert cache.get_memory("absent") is None
        cache.put("k", b"x")
        assert cache.get_memory("k") == b"x"
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 0

    def test_len_and_contains_do_not_touch_counters(self):
        cache = ResultCache(64)
        cache.put("k", b"x")
        assert len(cache) == 1 and "k" in cache and "other" not in cache
        assert cache.stats().hits == 0 and cache.stats().misses == 0

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = ResultCache(64)
        cache.put("k", b"x")
        cache.get("k")
        cache.clear()
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats.entries == 0 and stats.bytes == 0 and stats.hits == 1

    def test_stats_to_dict_shape(self):
        stats = ResultCache(64).stats()
        assert isinstance(stats, CacheStats)
        d = stats.to_dict()
        assert {"hits", "misses", "evictions", "spills", "spill_hits",
                "entries", "bytes", "stored_bytes", "max_bytes",
                "hit_rate"} <= set(d)


class TestLru:
    def test_evicts_least_recently_used(self):
        cache = ResultCache(3)  # holds three 1-byte payloads
        cache.put("a", b"1")
        cache.put("b", b"2")
        cache.put("c", b"3")
        cache.get("a")  # refresh a: b becomes LRU
        cache.put("d", b"4")
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache
        assert cache.stats().evictions == 1

    def test_byte_budget_enforced(self):
        cache = ResultCache(10)
        for i in range(8):
            cache.put(f"k{i}", b"xxxx")  # 4 bytes each, budget fits 2
        stats = cache.stats()
        assert stats.bytes <= 10 and stats.entries == 2
        assert stats.evictions == 6

    def test_oversized_payload_not_admitted_to_memory(self):
        cache = ResultCache(4)
        cache.put("big", b"x" * 100)
        assert "big" not in cache and cache.stats().bytes == 0

    def test_oversized_refresh_evicts_the_stale_small_value(self):
        """A later over-budget put for the same key must not leave the old
        in-memory value to be served forever."""
        cache = ResultCache(8)
        cache.put("k", b"old")
        cache.put("k", b"x" * 100)  # oversize: cannot live in memory
        assert cache.get("k") is None  # and the stale b"old" is gone too
        assert cache.stats().bytes == 0

    def test_zero_budget_is_a_counting_noop(self):
        cache = ResultCache(0)
        cache.put("k", b"x")
        assert cache.get("k") is None
        assert cache.stats().misses == 1

    def test_disk_only_mode_does_not_rewrite_on_every_hit(self, tmp_path):
        """max_bytes=0 + spill_dir is the disk-only tier: hits must read
        the file, not re-spill identical bytes on each lookup."""
        cache = ResultCache(0, spill_dir=tmp_path)
        cache.put("k", b"payload")
        assert cache.stats().spills == 1
        for _ in range(5):
            assert cache.get("k") == b"payload"
        stats = cache.stats()
        assert stats.spills == 1  # the original write only
        assert stats.spill_hits == 5 and stats.hits == 5


class TestDiskSpill:
    def test_evicted_entry_served_from_disk_and_promoted(self, tmp_path):
        cache = ResultCache(4, spill_dir=tmp_path)
        cache.put("a", b"aaaa")
        cache.put("b", b"bbbb")  # evicts a -> spilled to disk
        assert "a" not in cache
        assert cache.stats().spills == 1
        assert cache.get("a") == b"aaaa"  # disk hit
        stats = cache.stats()
        assert stats.spill_hits == 1 and stats.hits == 1
        assert "a" in cache  # promoted back into memory

    def test_spill_files_are_filesystem_safe(self, tmp_path):
        cache = ResultCache(1, spill_dir=tmp_path)
        cache.put("hash|spec|{...}/|nasty", b"xy")  # oversized -> straight to disk
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert files[0].suffix == ".json" and "|" not in files[0].name

    def test_oversized_payload_spills_directly(self, tmp_path):
        cache = ResultCache(4, spill_dir=tmp_path)
        cache.put("big", b"x" * 100)
        assert cache.stats().spills == 1
        assert cache.get("big") == b"x" * 100
        assert cache.stats().spill_hits == 1

    def test_spill_dir_created(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        ResultCache(64, spill_dir=target)
        assert target.is_dir()

    def test_restart_reuses_spilled_results(self, tmp_path):
        first = ResultCache(4, spill_dir=tmp_path)
        first.put("a", b"aaaa")
        first.put("b", b"bbbb")  # spills a
        second = ResultCache(1024, spill_dir=tmp_path)  # fresh process, same dir
        assert second.get("a") == b"aaaa"


class TestSpillCorruption:
    """A damaged L2 file is a miss plus a counter — never an error, and
    never stale bytes served as valid."""

    def _spill_path(self, cache, key):
        cache.put(key, b"x" * 100)  # oversized -> straight to disk
        (path,) = list(cache.spill_dir.iterdir())
        return path

    def test_truncated_spill_file_reads_as_miss(self, tmp_path):
        cache = ResultCache(4, spill_dir=tmp_path)
        path = self._spill_path(cache, "k")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats.corruptions == 1 and stats.misses == 1
        assert not path.exists()  # quarantined: deleted, not retried forever

    def test_garbage_spill_file_reads_as_miss(self, tmp_path):
        cache = ResultCache(4, spill_dir=tmp_path)
        path = self._spill_path(cache, "k")
        path.write_bytes(b"\x00\xffnot a spill frame at all")
        assert cache.get("k") is None
        assert cache.stats().corruptions == 1

    def test_flipped_payload_byte_fails_the_checksum(self, tmp_path):
        cache = ResultCache(4, spill_dir=tmp_path)
        path = self._spill_path(cache, "k")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # damage the payload, keep the frame header intact
        path.write_bytes(bytes(raw))
        assert cache.get("k") is None
        assert cache.stats().corruptions == 1

    def test_recompute_overwrites_the_corrupt_file(self, tmp_path):
        cache = ResultCache(4, spill_dir=tmp_path)
        path = self._spill_path(cache, "k")
        path.write_bytes(b"garbage")
        assert cache.get("k") is None  # corruption detected, file quarantined
        cache.put("k", b"x" * 100)  # the recompute path re-spills
        assert cache.get("k") == b"x" * 100
        stats = cache.stats()
        assert stats.corruptions == 1 and stats.spill_hits == 1

    def test_pre_framing_spill_file_is_treated_as_corrupt(self, tmp_path):
        """Files written before the checksum frame existed have no header:
        they must read as a miss, not as payload."""
        cache = ResultCache(4, spill_dir=tmp_path)
        path = self._spill_path(cache, "k")
        path.write_bytes(b'{"report": {"height": 12}}')  # old-format: raw payload
        assert cache.get("k") is None
        assert cache.stats().corruptions == 1

    def test_corruptions_in_stats_dict(self, tmp_path):
        cache = ResultCache(4, spill_dir=tmp_path)
        assert cache.stats().to_dict()["corruptions"] == 0


class TestCompressedMemoryTier:
    """Values are held compressed; budget, counters, hits and spill files
    all still see the wire (uncompressed) bytes."""

    def test_stored_bytes_tracks_what_is_held(self):
        payload = json.dumps({"values": list(range(300))}).encode()
        cache = ResultCache(1 << 20)
        cache.put("k", payload)
        stats = cache.stats()
        assert stats.bytes == len(payload)
        assert 0 < stats.stored_bytes < len(payload)
        cache.put("k", payload * 2)  # a refresh uncharges the old value
        assert cache.stats().bytes == 2 * len(payload)
        assert cache.stats().stored_bytes < 2 * len(payload)
        cache.clear()
        assert cache.stats().bytes == cache.stats().stored_bytes == 0

    def test_answers_cost_less_memory_than_their_wire_length(self):
        rng = np.random.default_rng(0)
        answers = [
            (f"k{i}", run(StripPackingInstance(powerlaw_rects(16, rng)), "ffdh"))
            for i in range(2000)
        ]
        cache = ResultCache()
        wire = 0
        gc.collect()
        tracemalloc.start()
        try:
            # Each answer is created inside the traced window and the cache
            # keeps the only reference, so `retained` is what holding costs.
            before = tracemalloc.get_traced_memory()[0]
            for key, report in answers:
                payload = encode_report(report)
                wire += len(payload)
                cache.put(key, payload)
            del payload
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Held raw under their key strings in an OrderedDict, these answers
        # cost ~1.1x their wire length; as held here, ~0.4x.
        assert retained < 0.75 * wire
        stats = cache.stats()
        assert stats.entries == len(answers) and stats.bytes == wire
        for key, report in answers:
            assert cache.get(key) == encode_report(report)

    def test_spill_files_hold_the_raw_payload(self, tmp_path):
        payload = json.dumps({"values": list(range(300))}).encode()
        cache = ResultCache(len(payload), spill_dir=tmp_path)
        cache.put("a", payload)
        cache.put("b", payload[::-1])  # the wire budget fits one: a spills
        assert cache.stats().evictions == 1
        (path,) = tmp_path.iterdir()
        assert path.read_bytes() == ResultCache._frame(payload)
        fresh = ResultCache(spill_dir=tmp_path)  # a restart over the directory
        assert fresh.get("a") == payload and "a" in fresh


class TestLruMap:
    def test_matches_an_ordered_dict_on_random_operations(self):
        """The two-dict map keeps exactly OrderedDict's LRU order."""
        rng = random.Random(0)
        lru, reference = _LruMap(), OrderedDict()
        for step in range(20000):
            key = rng.randrange(64)
            op = rng.random()
            if op < 0.3:
                expected = reference.get(key)
                if expected is not None:
                    reference.move_to_end(key)
                assert lru.touch(key) == expected
            elif op < 0.55:
                assert lru.pop(key) == reference.pop(key, None)
            elif op < 0.85:
                value = str(step).encode()
                reference.pop(key, None)
                lru.pop(key)
                reference[key] = value
                lru.add(key, value)
            elif reference:
                assert lru.pop_lru() == reference.popitem(last=False)
            assert len(lru) == len(reference)
            assert (key in lru) == (key in reference)
        assert {**lru.recent, **lru.older} == dict(reference)


class TestThreadSafety:
    def test_concurrent_mixed_workload_stays_consistent(self):
        cache = ResultCache(256)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                for i in range(200):
                    key = f"k{(seed * 7 + i) % 32}"
                    if i % 3 == 0:
                        cache.put(key, key.encode() * 4)
                    else:
                        got = cache.get(key)
                        assert got is None or got == key.encode() * 4
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        # More threads than cores and a tiny switch interval, so threads
        # interleave inside put/get as often as the interpreter allows.
        threads = [
            threading.Thread(target=worker, args=(s,))
            for s in range(max(8, 2 * (os.cpu_count() or 1)))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        stats = cache.stats()
        assert stats.bytes <= 256
        assert stats.hits + stats.misses > 0
        # A lost update to either size counter leaves it off these sums.
        held = [*cache._entries.recent.values(), *cache._entries.older.values()]
        assert stats.entries == len(held)
        assert stats.bytes == sum(len(cache._unpack(h)) for h in held)
        assert stats.stored_bytes == sum(len(h) for h in held)
