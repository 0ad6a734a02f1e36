"""Content-addressed result cache: thread-safe LRU over response bytes.

The cache maps :func:`repro.core.serialize.result_key` strings to the
*serialised* response payload (the ``SolveReport`` + placement JSON the
server would send), not to live report objects:

* byte values make the size budget exact — the cache holds at most
  ``max_bytes`` of payload, measured in the same units the network sends;
* a repeated request is served the *same bytes* as the first one, which is
  what makes cached responses byte-identical by construction;
* values are opaque here, so the cache also stores portfolio responses or
  any future endpoint's payloads without schema knowledge.

The memory tier holds each value compressed — raw deflate at level 7
with the ``Z_FILTERED`` strategy — behind a 4-byte prefix recording its
*wire* length, i.e. the uncompressed length; ``put`` compresses and
``get``/``get_memory`` decompress, outside the lock.  The first payload
the tier admits becomes the preset dictionary of every later compression,
so a small answer need not spell out the JSON structure it shares with
all the others: a 16-rect answer is held in ~0.23 of its wire length, a
200-rect one in ~0.27.  Entries are keyed by the SHA-256 digest of the
key, as an int (its hex form names the entry's spill file), in a two-dict
LRU map rather than an ``OrderedDict``.  All told, a cached 16-rect
answer costs ~0.37x its wire length in memory, against ~1.1x for raw
bytes under the key string in an ``OrderedDict``.  The budget
(``max_bytes``), the oversized-payload rule, eviction and the ``bytes``
counter all still count wire bytes, exactly as if values were held raw;
``stored_bytes`` reports what the memory tier actually holds.

Eviction is LRU by access order.  With a ``spill_dir``, evicted entries
are written to disk (one ``<sha256(key)>.json`` file each) and a later
``get`` quietly promotes them back into memory — a warm restart directory
doubles as a second cache tier.  Spill files hold the raw payload, never
the compressed form, inside an integrity header
(``repro-spill/1 <sha256-of-payload>``): a truncated or garbage file —
torn write, full disk, stray editor — fails verification and is treated
as a *miss* (recompute + overwrite), never an error.  All counters needed
by ``GET /metrics`` (hits, misses, evictions, spills, spill hits,
corruptions) are maintained under the same lock that guards the map, so a
stats snapshot is always consistent.

The two disk seams (:meth:`ResultCache.get`'s spill read and
:meth:`ResultCache._spill`) accept a
:class:`~repro.service.faults.FaultInjector`, so the chaos suite can
schedule I/O errors, disk-full writes, and corrupted reads
deterministically.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import threading
import zlib
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path

from ..core.errors import InvalidInstanceError
from .faults import FaultInjector, as_injector

__all__ = [
    "CacheStats",
    "ResultCache",
    "NeighborIndex",
    "DEFAULT_CACHE_BYTES",
    "NEIGHBOR_ENTRIES",
]

#: Default in-memory budget, in wire bytes: ~33k 16-rect or ~3.7k
#: 200-rect solve answers (held compressed, in well under half that memory).
DEFAULT_CACHE_BYTES = 32 * 1024 * 1024

#: Integrity-header magic of the spill file format.
SPILL_MAGIC = b"repro-spill/1"

#: Compression level and strategy of memory-tier values.  Answers are
#: mostly float digits, where deflate's short string matches cost more
#: than the literals they replace; ``Z_FILTERED`` drops those matches.
#: Level 7 holds a 16-rect answer exactly as small as level 9 does and
#: compresses a 200-rect one ~30% faster for ~1% more bytes; level 6
#: would be faster still but holds 16-rect answers ~6.5% larger.
_LEVEL = 7
_STRATEGY = zlib.Z_FILTERED

#: Raw deflate: no zlib header or checksum on values that never leave memory.
_WBITS = -zlib.MAX_WBITS

#: Prefix of a held value: the value's wire length.
_WIRE_LEN = struct.Struct(">I")


def _digest(key: str) -> int:
    """The memory-tier key of ``key``: its SHA-256 digest as an int.

    A 256-bit int is a 64-byte object, against 80 for the digest as bytes
    and ~128 for a result-key string; its 64-digit hex form is the name of
    the key's spill file.
    """
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest(), "big")


class _LruMap:
    """A map in exact least-recently-used order, built on two plain dicts.

    An ``OrderedDict`` costs ~50 bytes more per entry than a ``dict``,
    and a cached 16-rect answer costs only ~370 bytes in all.  ``older``
    holds entries that are all less recently used than any in
    ``recent``, *most* recent first, so ``older.popitem()`` is the least
    recently used entry of the map; ``recent`` holds the rest, least
    recent first.  When ``older`` runs dry, the least recent eighth of
    ``recent`` moves over, reversed: a small ``older`` keeps the move
    from doubling the map's memory, and every operation stays amortised
    O(1).  Not thread-safe: the owner serialises access.
    """

    def __init__(self) -> None:
        self.recent: dict[int, bytes] = {}
        self.older: dict[int, bytes] = {}

    def __len__(self) -> int:
        return len(self.recent) + len(self.older)

    def __contains__(self, key: int) -> bool:
        return key in self.recent or key in self.older

    def pop(self, key: int) -> bytes | None:
        """Remove ``key``; its value, or ``None`` if absent."""
        value = self.recent.pop(key, None)
        return value if value is not None else self.older.pop(key, None)

    def touch(self, key: int) -> bytes | None:
        """The value of ``key``, now the most recently used; ``None`` if absent."""
        value = self.pop(key)
        if value is not None:
            self.recent[key] = value
        return value

    def add(self, key: int, value: bytes) -> None:
        """Insert an absent ``key`` as the most recently used."""
        self.recent[key] = value

    def pop_lru(self) -> tuple[int, bytes]:
        """Remove and return the least recently used entry."""
        if not self.older:
            chunk = list(itertools.islice(self.recent, len(self.recent) // 8 + 1))
            self.older = {key: self.recent.pop(key) for key in reversed(chunk)}
        return self.older.popitem()

    def clear(self) -> None:
        self.recent.clear()
        self.older.clear()


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of the cache counters (one lock acquisition)."""

    hits: int
    misses: int
    evictions: int
    spills: int
    spill_hits: int
    corruptions: int
    entries: int
    #: Wire (uncompressed) bytes of the memory tier, the unit of the budget.
    bytes: int
    #: Bytes the memory tier actually holds: compressed values + prefixes.
    stored_bytes: int
    max_bytes: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 before the first lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        out = asdict(self)
        out["hit_rate"] = self.hit_rate
        return out


class ResultCache:
    """Thread-safe LRU byte cache with a size budget and optional disk spill.

    ``max_bytes`` bounds the summed wire length of cached values (keys
    are not charged: they are fixed-size fingerprints, two orders of
    magnitude smaller than any payload); values are held compressed, so
    the memory behind the budget is smaller still.  ``max_bytes=0``
    disables the in-memory tier entirely — with a ``spill_dir`` that
    degrades to a disk-only cache, without one to a no-op that still
    counts misses.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        *,
        spill_dir: Path | str | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        if max_bytes < 0:
            raise InvalidInstanceError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        # A held value records its wire length in the 4-byte prefix, so
        # nothing longer can live in memory, whatever the budget.
        self._admit_bytes = min(self.max_bytes, 2 ** (8 * _WIRE_LEN.size) - 1)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._faults = as_injector(faults)
        self._lock = threading.Lock()
        # _digest(key) -> held (compressed) value.
        self._entries = _LruMap()
        # The preset dictionary, set once by the first admitted payload
        # and never changed after: every held value depends on it.
        self._primer: bytes | None = None
        self._bytes = 0
        self._stored = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._spills = 0
        self._spill_hits = 0
        self._corruptions = 0

    # -- key/value plumbing --------------------------------------------

    def _spill_path(self, digest: int) -> Path:
        """Filesystem-safe location for a key (keys contain ``|``)."""
        assert self.spill_dir is not None
        return self.spill_dir / f"{digest:064x}.json"

    def _pack(self, payload: bytes) -> bytes:
        """The memory-tier form of ``payload``: wire length, then deflate."""
        if self._primer is None:
            with self._lock:
                if self._primer is None:
                    # Deflate never looks further back than its window.
                    self._primer = payload[-(1 << zlib.MAX_WBITS) :]
        packer = zlib.compressobj(
            _LEVEL, zlib.DEFLATED, _WBITS, strategy=_STRATEGY, zdict=self._primer
        )
        return _WIRE_LEN.pack(len(payload)) + packer.compress(payload) + packer.flush()

    def _unpack(self, held: bytes) -> bytes:
        """The original payload bytes of a held value."""
        unpacker = zlib.decompressobj(_WBITS, zdict=self._primer)
        return unpacker.decompress(memoryview(held)[_WIRE_LEN.size :])

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        """Wrap ``payload`` in the integrity header a spill file carries."""
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        return SPILL_MAGIC + b" " + digest + b"\n" + payload

    @staticmethod
    def _unframe(raw: bytes) -> bytes | None:
        """The verified payload of a spill file, or ``None`` if the file
        is truncated, garbage, or from an unframed format."""
        head, sep, payload = raw.partition(b"\n")
        if not sep:
            return None
        parts = head.split()
        if len(parts) != 2 or parts[0] != SPILL_MAGIC:
            return None
        if hashlib.sha256(payload).hexdigest().encode("ascii") != parts[1]:
            return None
        return payload

    def _spill(self, digest: int, payload: bytes) -> None:
        """Write one evicted/oversized payload to disk (no lock held).

        Spill failures (full disk, permissions — or their injected
        equivalents) drop the entry silently — the cache is an
        accelerator, never a source of truth, so losing an entry only
        costs a future re-solve.  Concurrent writers of the same key
        write identical content, so last-writer-wins is safe.
        """
        assert self.spill_dir is not None
        try:
            if self._faults is not None:
                self._faults.fire_sync("cache.spill_write")
            self._spill_path(digest).write_bytes(self._frame(payload))
        except OSError:
            return
        with self._lock:
            self._spills += 1

    def _release_locked(self, held: bytes) -> None:
        """Uncharge one held value that left the memory tier."""
        self._bytes -= _WIRE_LEN.unpack_from(held)[0]
        self._stored -= len(held)

    # -- public API -----------------------------------------------------

    def get_memory(self, key: str) -> bytes | None:
        """Memory-tier-only lookup: counts a hit when found, never a miss.

        The serving hot path probes this inline (it is a lock + dict
        lookup, then a decompress) and only falls to the full :meth:`get`
        — which may block on spill-tier disk I/O — when it returns ``None``.
        """
        with self._lock:
            held = self._entries.touch(_digest(key))
            if held is None:
                return None
            self._hits += 1
        return self._unpack(held)

    def get(self, key: str) -> bytes | None:
        """The cached payload for ``key``, or ``None`` on a miss.

        A memory hit refreshes LRU recency; a disk hit (spilled entry)
        promotes the payload back into the memory tier.  Disk I/O happens
        outside the lock, so a slow spill device never serialises the
        memory-tier hot path behind it.
        """
        digest = _digest(key)
        with self._lock:
            held = self._entries.touch(digest)
            if held is not None:
                self._hits += 1
        if held is not None:
            return self._unpack(held)
        if self.spill_dir is not None:
            kinds = (
                {spec.kind for spec in self._faults.check("cache.spill_read")}
                if self._faults is not None
                else set()
            )
            raw: bytes | None = None
            if "io_error" not in kinds:
                try:
                    raw = self._spill_path(digest).read_bytes()
                except OSError:
                    raw = None
            if raw is not None and "corrupt" in kinds:
                raw = raw[: len(raw) // 2]
            if raw is not None:
                payload = self._unframe(raw)
                if payload is None:
                    # Torn write / garbage / stale format: a corrupt spill
                    # file is a miss, never an error.  Drop it so the
                    # recomputed result overwrites it cleanly.
                    with self._lock:
                        self._corruptions += 1
                    try:
                        self._spill_path(digest).unlink()
                    except OSError:
                        pass
                else:
                    with self._lock:
                        self._spill_hits += 1
                        self._hits += 1
                    if len(payload) <= self._admit_bytes:
                        # Promote into memory; an entry the budget can't
                        # hold (including the disk-only max_bytes=0
                        # configuration) stays on disk — re-spilling
                        # identical bytes would turn every disk hit into
                        # a redundant write.
                        self.put(key, payload)
                    return payload
        with self._lock:
            self._misses += 1
        return None

    def put(self, key: str, payload: bytes) -> None:
        """Insert (or refresh) ``key`` → ``payload``, evicting LRU entries
        until the memory tier fits its budget again.

        A payload larger than the whole budget bypasses memory and goes
        straight to disk (when configured) — admitting it would evict
        everything else for one entry that gets evicted next anyway.
        The payload is compressed before the lock is taken; evicted
        entries are collected under the lock, then decompressed and
        spilled after it is released.
        """
        if not isinstance(payload, bytes):
            raise InvalidInstanceError(
                f"cache values are bytes, got {type(payload).__name__}"
            )
        digest = _digest(key)
        if len(payload) > self._admit_bytes:
            with self._lock:
                # An oversized refresh must not leave a stale smaller
                # value behind in the memory tier.
                old = self._entries.pop(digest)
                if old is not None:
                    self._release_locked(old)
            if self.spill_dir is not None:
                self._spill(digest, payload)
            return
        held = self._pack(payload)
        evicted: list[tuple[int, bytes]] = []
        with self._lock:
            old = self._entries.pop(digest)
            if old is not None:
                self._release_locked(old)
            self._entries.add(digest, held)
            self._bytes += len(payload)
            self._stored += len(held)
            while self._bytes > self.max_bytes:
                victim_digest, victim = self._entries.pop_lru()
                self._release_locked(victim)
                self._evictions += 1
                evicted.append((victim_digest, victim))
        if self.spill_dir is not None:
            for victim_digest, victim in evicted:
                self._spill(victim_digest, self._unpack(victim))

    def stats(self) -> CacheStats:
        """Consistent counter snapshot (for ``GET /metrics`` and tests)."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                spills=self._spills,
                spill_hits=self._spill_hits,
                corruptions=self._corruptions,
                entries=len(self._entries),
                bytes=self._bytes,
                stored_bytes=self._stored,
                max_bytes=self.max_bytes,
            )

    def clear(self) -> None:
        """Drop the memory tier (spilled files are left on disk)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._stored = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership in the *memory* tier, without touching counters."""
        digest = _digest(key)
        with self._lock:
            return digest in self._entries


#: Bound on the neighbor index: each entry stores one instance dict (a
#: few KB for typical request sizes), so 1024 entries stay well under the
#: result cache's own budget.
NEIGHBOR_ENTRIES = 1024


class NeighborIndex:
    """Locality-sensitive index from LSH band keys to cached solves.

    The index answers the warm-start question — "which cached instance is
    nearest to this request?" — in O(1): an entry is registered under each
    band key of its :func:`repro.core.serialize.instance_sketch`, scoped
    by a *bucket* string (the ``spec_name|canonical_params`` suffix of the
    result key, so a neighbor is only ever reported for the same solver
    configuration).  A lookup unions the band posting sets and returns the
    candidate sharing the most bands, most-recently-added winning ties —
    both the posting sets and the tie-break are deterministic, which keeps
    warm-start provenance reproducible across identical request orders.

    Entries hold the *instance dict* (not the payload): the payload lives
    in the :class:`ResultCache` under the entry's result key and is
    re-fetched at repair time, so an evicted payload simply downgrades a
    warm start to a cold solve.  An LRU of at most
    :data:`NEIGHBOR_ENTRIES` entries, refreshed on insertion; thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # key -> (bucket, sketch, instance dict); insertion order = recency.
        self._entries: OrderedDict[str, tuple[str, tuple[str, ...], dict]] = OrderedDict()
        # (bucket, band) -> keys registered under that band.
        self._bands: dict[tuple[str, str], set[str]] = {}

    def _drop_locked(self, key: str) -> None:
        bucket, sketch, _ = self._entries.pop(key)
        for band in sketch:
            posting = self._bands.get((bucket, band))
            if posting is not None:
                posting.discard(key)
                if not posting:
                    del self._bands[(bucket, band)]

    def add(
        self,
        key: str,
        *,
        bucket: str,
        sketch: tuple[str, ...],
        instance: dict,
    ) -> None:
        """Register ``key`` (a result key) under its sketch bands."""
        with self._lock:
            if key in self._entries:
                self._drop_locked(key)
            self._entries[key] = (bucket, tuple(sketch), instance)
            for band in sketch:
                self._bands.setdefault((bucket, band), set()).add(key)
            while len(self._entries) > NEIGHBOR_ENTRIES:
                self._drop_locked(next(iter(self._entries)))

    def nearest(
        self,
        *,
        bucket: str,
        sketch: tuple[str, ...],
        exclude: str | None = None,
    ) -> tuple[str, dict] | None:
        """Best ``(result_key, instance_dict)`` sharing a band, or ``None``.

        ``exclude`` skips the requester's own key so a re-submitted
        instance never reports itself as its neighbor.
        """
        with self._lock:
            overlap: dict[str, int] = {}
            for band in sketch:
                for key in self._bands.get((bucket, band), ()):
                    if key != exclude:
                        overlap[key] = overlap.get(key, 0) + 1
            if not overlap:
                return None
            recency = {key: i for i, key in enumerate(self._entries)}
            best = max(overlap, key=lambda key: (overlap[key], recency[key]))
            _, _, instance = self._entries[best]
            return best, instance

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
