"""JSON (de)serialization for instances and placements.

The on-disk format is deliberately plain so downstream users can generate
instances from any tooling::

    {
      "type": "precedence",            # "plain" | "precedence" | "release"
      "K": 8,                          # release instances only
      "rects": [
        {"id": "dct:0", "width": 0.25, "height": 2.0, "release": 0.0},
        ...
      ],
      "edges": [["tile_split", "dct:0"], ...]   # precedence only
    }

Placements serialise as ``{"placements": [{"id":..., "x":..., "y":...}]}``.
Round-tripping is exact for ids and floats (no quantisation is applied).

The module also owns the **canonical fingerprint** used by the serving
layer's content-addressed result cache (:mod:`repro.service`):
:func:`canonical_instance_dict` reduces an instance to a form that is
insensitive to rectangle order and to float noise below the shared
geometric tolerance (:data:`repro.core.tol.ATOL`); :func:`canonical_hash`
is a SHA-256 over a versioned, columnar encoding of the same content,
equal exactly when those dicts are equal; and :func:`result_key` combines
the hash with an algorithm name and its parameter overrides into the cache
key for one solve.  All three run in plain Python, so keying a request
never imports numpy; only the opt-in warm start's :func:`instance_sketch`
imports it, when it first runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Any, Mapping

from .errors import InvalidInstanceError
from .instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from .placement import Placement
from .rectangle import Rect
from .tol import ATOL

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "dumps_instance",
    "loads_instance",
    "placement_to_dict",
    "placement_from_dict",
    "canonical_instance_dict",
    "canonical_hash",
    "KEY_VERSION",
    "canonical_params",
    "result_key",
    "instance_sketch",
    "instance_delta",
    "SKETCH_HASHES",
    "SKETCH_BANDS",
]


def instance_to_dict(instance: StripPackingInstance) -> dict[str, Any]:
    """Serialise any instance variant to a JSON-ready dict."""
    rects = [
        {"id": r.rid, "width": r.width, "height": r.height, "release": r.release}
        for r in instance.rects
    ]
    if isinstance(instance, ReleaseInstance):
        return {"type": "release", "K": instance.K, "rects": rects}
    if isinstance(instance, PrecedenceInstance):
        return {
            "type": "precedence",
            "rects": rects,
            "edges": [[u, v] for u, v in instance.dag.edges()],
        }
    return {"type": "plain", "rects": rects}


def instance_from_dict(data: dict[str, Any]) -> StripPackingInstance:
    """Rebuild an instance from :func:`instance_to_dict` output."""
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"instance JSON must be an object, got {type(data).__name__}"
        )
    kind = data.get("type")
    if kind not in ("plain", "precedence", "release"):
        raise InvalidInstanceError(f"unknown instance type {kind!r}")
    try:
        rects = [
            Rect(
                rid=entry["id"],
                width=float(entry["width"]),
                height=float(entry["height"]),
                release=float(entry.get("release", 0.0)),
            )
            for entry in data["rects"]
        ]
    except KeyError as exc:
        raise InvalidInstanceError(f"rect entry missing field {exc}") from exc
    except OverflowError as exc:
        raise InvalidInstanceError("rect entry has a number too large for a float") from exc
    if kind == "plain":
        return StripPackingInstance(rects)
    if kind == "release":
        if "K" not in data:
            raise InvalidInstanceError("release instance requires 'K'")
        try:
            K = int(data["K"])
        except OverflowError as exc:
            raise InvalidInstanceError(f"K must be finite, got {data['K']!r}") from exc
        return ReleaseInstance(rects, K)
    from ..dag.graph import TaskDAG

    edges = [tuple(e) for e in data.get("edges", [])]
    return PrecedenceInstance(rects, TaskDAG([r.rid for r in rects], edges))


def dumps_instance(instance: StripPackingInstance, **json_kwargs: Any) -> str:
    """Instance -> JSON string."""
    return json.dumps(instance_to_dict(instance), **json_kwargs)


def loads_instance(text: str) -> StripPackingInstance:
    """JSON string -> instance."""
    return instance_from_dict(json.loads(text))


def placement_to_dict(placement: Placement) -> dict[str, Any]:
    """Serialise a placement (sorted by id string for stable output)."""
    return {
        "height": placement.height,
        "placements": sorted(
            ({"id": rid, "x": pr.x, "y": pr.y} for rid, pr in placement.items()),
            key=lambda e: str(e["id"]),
        ),
    }


# ----------------------------------------------------------------------
# canonical fingerprinting (the serving layer's cache identity)
# ----------------------------------------------------------------------

_BEYOND_TICK_RANGE = "cannot canonicalise a value beyond the tick range"


def _ticks(value: float, atol: float) -> int:
    """Quantise ``value`` onto the ``atol`` grid (integer tick count).

    Two dimensions that differ by less than half a tolerance step land on
    the same tick, so float noise far below any geometric decision
    threshold never splits the cache; genuinely different dimensions are
    many ticks apart (see :mod:`repro.core.tol` for why ``ATOL`` separates
    the two regimes).  Non-finite values (``json.loads`` accepts NaN and
    Infinity) have no tick and are rejected, and so is a number too large
    for a float or whose tick count overflows one.
    """
    try:
        value = float(value)
        if not math.isfinite(value):
            raise InvalidInstanceError(f"cannot canonicalise non-finite value {value!r}")
        return round(value / atol)
    except OverflowError:
        raise InvalidInstanceError(_BEYOND_TICK_RANGE) from None


def _canonical_json(value: Any) -> str:
    """Deterministic JSON used both for hashing and as a sort key."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_instance_dict(
    instance: StripPackingInstance, *, atol: float = ATOL
) -> dict[str, Any]:
    """Reduce ``instance`` to its canonical, fingerprint-ready dict.

    Properties the serving cache relies on:

    * **order-insensitive** — rectangles (and precedence edges) are sorted
      canonically, so permuting ``instance.rects`` does not change the
      result;
    * **tolerance-aware** — ``width``/``height``/``release`` are quantised
      to integer ticks on the ``atol`` grid, so float noise below the
      library's geometric tolerance maps to the same form;
    * **variant-complete** — the instance type, ``K`` (release), and the
      DAG edges (precedence) are part of the form, so instances that would
      solve differently never collide by construction.

    Ids are preserved verbatim (placements and precedence edges refer to
    them), which makes the fingerprint intentionally *not* invariant under
    id renaming.

    The cache key (:func:`canonical_hash`) encodes the same content from
    the instance's columns; the warm-start sketch (:func:`instance_sketch`)
    reads this form.  At the default ``atol`` the result is cached on the
    (frozen) instance, so repeated sketches canonicalise once.  The memo is
    bounded to exactly that one entry per instance: a call with a
    non-default ``atol`` neither reads nor writes it (it computes fresh),
    so an exotic-tolerance caller can never poison the grid the neighbor
    index keys on.  Callers must treat the returned dict as immutable.
    """
    if atol == ATOL:
        cached = instance.__dict__.get("_canonical_dict")
        if cached is not None:
            return cached
    rects = sorted(
        (
            {
                "id": r.rid,
                "w": _ticks(r.width, atol),
                "h": _ticks(r.height, atol),
                "r": _ticks(r.release, atol),
            }
            for r in instance.rects
        ),
        key=_canonical_json,
    )
    data: dict[str, Any] = {"v": 1, "type": "plain", "rects": rects}
    if isinstance(instance, ReleaseInstance):
        data["type"] = "release"
        data["K"] = instance.K
    elif isinstance(instance, PrecedenceInstance):
        data["type"] = "precedence"
        data["edges"] = sorted(
            ([u, v] for u, v in instance.dag.edges()), key=_canonical_json
        )
    if atol == ATOL:
        object.__setattr__(instance, "_canonical_dict", data)
    return data


#: Version tag framing every :func:`canonical_hash` input.  Bump it when the
#: encoding changes: keys (and the disk spill files named after them) made
#: under another version then simply never match.
KEY_VERSION = "repro-key/2"


def canonical_hash(instance: StripPackingInstance, *, atol: float = ATOL) -> str:
    """SHA-256 hex digest of the canonical content of ``instance``.

    Two instances hash equal exactly when their
    :func:`canonical_instance_dict` forms are equal.  The digest is
    computed in plain Python straight from ``instance.rects`` (no numpy,
    so keying a request never loads it), over a columnar byte layout:

    * rows are ordered by a type-aware id key, so ``1`` and ``"1"`` never
      tie, and the ordered ids are encoded with one ``json.dumps``;
    * ``width``/``height``/``release`` are quantised like :func:`_ticks`
      (``round`` rounds half to even and returns an exact integer, so
      huge values cannot wrap and ``-0.0`` cannot arise) and packed as
      little-endian ``float64``: every width in row order, then every
      height, then every release;
    * precedence edges are ``(pos[u], pos[v])`` row-position pairs, sorted
      and packed as little-endian ``int64``: every ``u``, then every ``v``;
    * the input is framed with :data:`KEY_VERSION`, the variant, ``K`` and
      the part lengths, so no two encodings share their bytes.
    """
    rows = sorted(instance.rects, key=lambda r: (type(r.rid).__name__, str(r.rid)))
    ids = json.dumps([r.rid for r in rows], separators=(",", ":")).encode("ascii")
    try:
        ticks = [round(r.width / atol) for r in rows]
        ticks += [round(r.height / atol) for r in rows]
        ticks += [round(r.release / atol) for r in rows]
    except OverflowError:
        raise InvalidInstanceError(_BEYOND_TICK_RANGE) from None
    kind, K, edges = "plain", "", []
    if isinstance(instance, ReleaseInstance):
        kind, K = "release", instance.K
    elif isinstance(instance, PrecedenceInstance):
        kind = "precedence"
        pos = {r.rid: p for p, r in enumerate(rows)}
        pairs = sorted(
            (pos[u], pos[v]) for u, vs in instance.dag.successor_sets().items() for v in vs
        )
        edges = [u for u, _ in pairs] + [v for _, v in pairs]
    digest = hashlib.sha256(f"{KEY_VERSION}|{kind}|{K}|{len(rows)}|{len(ids)}|".encode("ascii"))
    digest.update(ids)
    # Each tick is an integer a float64 holds exactly, so "d" packs it exactly.
    digest.update(struct.pack(f"<{len(ticks)}d", *ticks))
    digest.update(struct.pack(f"<{len(edges)}q", *edges))
    return digest.hexdigest()


def canonical_params(
    params: Mapping[str, Any] | None, *, atol: float = ATOL
) -> str:
    """Parameter overrides as deterministic JSON (``None`` == no overrides).

    Numbers (ints and floats alike) are quantised to the same ``atol``
    grid as geometry and rendered as tagged ``"n:<ticks>"`` strings: an
    ``eps`` that differs by float noise does not split the cache, and
    ``4`` and ``4.0`` (JSON clients emit either) share one key.  String
    values get an ``"s:"`` tag so no string can ever alias a number's
    canonical form.  Nested lists/dicts are canonicalised recursively;
    bools and ``None`` pass through (JSON keeps them distinct from every
    tagged string).
    """

    def canon(value: Any) -> Any:
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, str):
            return f"s:{value}"
        if isinstance(value, (int, float)):
            return f"n:{_ticks(value, atol)}"
        if isinstance(value, Mapping):
            return {str(k): canon(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        raise InvalidInstanceError(
            f"parameter value {value!r} is not JSON-canonicalisable"
        )

    return _canonical_json(canon(dict(params) if params else {}))


def result_key(
    instance: StripPackingInstance,
    spec_name: str,
    params: Mapping[str, Any] | None = None,
    *,
    atol: float = ATOL,
) -> str:
    """The content-addressed cache key for one ``(instance, spec, params)``.

    ``spec_name`` must be the *resolved* algorithm name (callers that let
    the engine pick a per-variant default resolve it first, via
    :func:`repro.engine.default_algorithm`), so an explicit request and a
    defaulted request for the same solve share one cache entry.  Two solves
    with the same key are the same solve: same canonical instance, same
    algorithm, same (quantised) parameter overrides.
    """
    if not spec_name:
        raise InvalidInstanceError("result_key needs a non-empty spec name")
    return "|".join(
        (canonical_hash(instance, atol=atol), spec_name, canonical_params(params, atol=atol))
    )


# ----------------------------------------------------------------------
# locality-sensitive sketching (the serving layer's neighbor index)
# ----------------------------------------------------------------------

#: MinHash signature length; grouped into bands of ``SKETCH_HASHES //
#: SKETCH_BANDS`` rows each for LSH banding.
SKETCH_HASHES = 16
SKETCH_BANDS = 4

# 2^64 - 1: the identity of ``min`` over 8-byte hash values.
_SKETCH_MAX = (1 << 64) - 1

# One odd multiplier + offset per MinHash row (derived once from SHA-256 of
# the row index).  Each token is SHA-256-hashed a single time; row ``i``'s
# hash is the affine mix ``(a_i * h + b_i) mod 2^64`` of that digest — the
# standard universal-hashing trick that keeps the sketch O(tokens) instead
# of O(rows * tokens) sha256 calls.
def _row_mixers(rows: int) -> tuple[tuple[int, int], ...]:
    out = []
    for row in range(rows):
        digest = hashlib.sha256(f"sketch-row|{row}".encode("ascii")).digest()
        a = int.from_bytes(digest[:8], "big") | 1  # odd => bijective mod 2^64
        b = int.from_bytes(digest[8:16], "big")
        out.append((a, b))
    return tuple(out)


_SKETCH_MIXERS = _row_mixers(SKETCH_HASHES)


def instance_sketch(
    instance: StripPackingInstance, *, atol: float = ATOL
) -> tuple[str, ...]:
    """Locality-sensitive sketch of ``instance``: a tuple of LSH band keys.

    The sketch is a banded MinHash over the canonical rect entries of
    :func:`canonical_instance_dict` (id + quantised dims, so the token set
    changes by exactly the rects a delta touches).  Two instances that
    share *any* band key are near-duplicate candidates: with
    ``SKETCH_HASHES=16`` hashes in ``SKETCH_BANDS=4`` bands of 4 rows, a
    pair at Jaccard similarity ``s`` collides on at least one band with
    probability ``1-(1-s^4)^4`` — ~97% at ``s=0.9`` (a small delta on a
    mid-size instance), ~4% at ``s=0.4`` (mostly different rect sets).

    Band keys embed the instance type (and ``K`` for release variants), so
    instances of different variants never collide by construction.  The
    sketch is a pure function of the canonical dict — order-insensitive
    and tolerance-aware exactly like :func:`canonical_hash`.
    """
    import numpy as np

    canon = canonical_instance_dict(instance, atol=atol)
    # Tokens are the canonical entries flattened to plain strings (the
    # entries are {"id", "w", "h", "r"} with integer ticks, so formatting
    # is lossless) — hashed once each; rows come from the affine mixers.
    hashes = np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(
                    f"{entry['id']!r}|{entry['w']}|{entry['h']}|{entry['r']}".encode(
                        "utf-8"
                    ),
                    digest_size=8,
                ).digest(),
                "big",
            )
            for entry in canon["rects"]
        ),
        dtype=np.uint64,
        count=len(canon["rects"]),
    )
    if hashes.size:
        signature = [
            int((hashes * np.uint64(a) + np.uint64(b)).min()) for a, b in _SKETCH_MIXERS
        ]
    else:
        signature = [_SKETCH_MAX] * SKETCH_HASHES
    variant = canon["type"] if canon["type"] != "release" else f"release/{canon['K']}"
    rows = SKETCH_HASHES // SKETCH_BANDS
    bands = []
    for band in range(SKETCH_BANDS):
        chunk = ",".join(str(v) for v in signature[band * rows : (band + 1) * rows])
        digest = hashlib.sha256(chunk.encode("ascii")).hexdigest()[:16]
        bands.append(f"{variant}|{band}:{digest}")
    return tuple(bands)


def instance_delta(
    old: StripPackingInstance,
    new: StripPackingInstance,
    *,
    atol: float = ATOL,
) -> dict[str, Any]:
    """Rect-level diff between two instances, keyed by rect id.

    Returns ``{"compatible", "added", "removed", "resized", "unchanged"}``
    where the id lists are sorted (by string form) and disjoint:

    * ``added``     — ids present only in ``new``;
    * ``removed``   — ids present only in ``old``;
    * ``resized``   — ids in both whose quantised ``width``/``height``/
      ``release`` ticks differ (sub-tolerance float noise is *not* a
      resize, matching the cache's equality notion);
    * ``unchanged`` — ids in both with identical ticks.

    ``compatible`` is ``False`` when the variants differ (or two release
    instances disagree on ``K``) — a warm-start repair across variants is
    meaningless, but the rect lists are still reported for diagnostics.
    """

    def entries(instance: StripPackingInstance) -> dict[Any, tuple[int, int, int]]:
        return {
            r.rid: (_ticks(r.width, atol), _ticks(r.height, atol), _ticks(r.release, atol))
            for r in instance.rects
        }

    old_entries, new_entries = entries(old), entries(new)
    added = sorted(set(new_entries) - set(old_entries), key=str)
    removed = sorted(set(old_entries) - set(new_entries), key=str)
    shared = set(old_entries) & set(new_entries)
    resized = sorted((rid for rid in shared if old_entries[rid] != new_entries[rid]), key=str)
    unchanged = sorted((rid for rid in shared if old_entries[rid] == new_entries[rid]), key=str)
    compatible = type(old) is type(new) and not (
        isinstance(old, ReleaseInstance)
        and isinstance(new, ReleaseInstance)
        and old.K != new.K
    )
    return {
        "compatible": compatible,
        "added": added,
        "removed": removed,
        "resized": resized,
        "unchanged": unchanged,
    }


def placement_from_dict(
    data: dict[str, Any], instance: StripPackingInstance
) -> Placement:
    """Rebuild a placement against ``instance`` (ids must match)."""
    by_id = instance.by_id()
    placement = Placement()
    for entry in data["placements"]:
        rid = entry["id"]
        if rid not in by_id:
            raise InvalidInstanceError(f"placement references unknown rect {rid!r}")
        placement.place(by_id[rid], float(entry["x"]), float(entry["y"]))
    return placement
