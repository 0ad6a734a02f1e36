"""``repro`` CLI entry point with timing wrappers around each layer.

Usage (from a checkout, with ``src`` on ``PYTHONPATH``)::

    PERFBENCH_TRACE_DIR=DIR python perfbench/launch.py serve --port 0 --workers 2

The wrappers time calls into the layers' public functions and keep one
``(layer, trace_id, seconds)`` record per call in memory; each process
writes its records to ``DIR/<pid>.json`` when it exits, together with
the time one wrapper adds to a call, measured there and then, so the
benchmark can report what tracing itself cost.  Fleet workers
are started with the ``spawn`` method, which re-imports this file as
``__mp_main__`` in every worker, so the wrappers are installed there too.
No program file is edited: the module attributes the program looks its
callees up in are replaced.

Boundaries with no public function to wrap (queue wait, router forward,
the engine's solve) come from the spans the program records itself, by
wrapping :meth:`repro.obs.spans.SpanRecorder.record`.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time

from repro.core import serialize
from repro.engine import runner, stacked
from repro.obs.spans import SpanRecorder
from repro.obs.trace import current_trace
from repro.service import cache, router, server

#: One (layer, trace id, seconds) tuple per timed call.
RECORDS: list[tuple[str, str, float]] = []

#: id(instance) -> trace id, so engine calls on the batcher thread (where
#: no request context is ambient) are joined back to their request.
_OWNER: dict[int, str] = {}

#: The program's own spans that have no wrappable public function.
_SPANS = frozenset({"queue.wait", "router.forward", "engine.solve"})


def _ambient() -> str:
    ctx = current_trace()
    return ctx.trace_id if ctx is not None else ""


def _timed(layer: str, fn, trace_of=None):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - t0
            trace = trace_of(args) if trace_of is not None else _ambient()
            RECORDS.append((layer, trace, elapsed))

    return wrapper


def _instance_trace(args) -> str:
    return _OWNER.get(id(args[0]), "")


def _install() -> None:
    server.result_key = _timed("serialize.key", serialize.result_key)
    server.parse_json_body = _timed("server.json", server.parse_json_body)
    router.parse_json_body = _timed("router.json", router.parse_json_body)
    router.resolve_solve_request = _timed("router.resolve", router.resolve_solve_request)
    router.HashRing.preference = _timed("router.ring", router.HashRing.preference)
    cache.ResultCache.get = _timed("cache.lookup", cache.ResultCache.get)
    cache.ResultCache.put = _timed("cache.store", cache.ResultCache.put)
    server.encode_report = _timed("server.encode", server.encode_report)

    resolve = _timed("server.resolve", server.resolve_solve_request)

    def resolve_and_own(data):
        resolved = resolve(data)
        _OWNER[id(resolved[3])] = _ambient()
        return resolved

    server.resolve_solve_request = resolve_and_own

    bounds = _timed("engine.bounds", runner.bound_components, _instance_trace)
    validate = _timed("engine.validate", runner.validate_placement, _instance_trace)
    for module in (runner, stacked):
        module.bound_components = bounds
        module.validate_placement = validate

    record = SpanRecorder.record

    def record_span(self, trace_id, name, start_s, duration_s, **kwargs):
        if name in _SPANS:
            RECORDS.append((name, trace_id, duration_s))
        return record(self, trace_id, name, start_s, duration_s, **kwargs)

    SpanRecorder.record = record_span


def _wrapper_cost(calls: int = 20000) -> float:
    """Seconds one timing wrapper adds to a call, measured in this process."""

    def noop():
        return None

    timed = _timed("calibrate", noop)
    mark = len(RECORDS)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        timed()
    wrapped = clock() - t0
    del RECORDS[mark:]
    return max(wrapped - bare, 0.0) / calls


def _dump(directory: str) -> None:
    path = os.path.join(directory, f"{os.getpid()}.json")
    doc = {"pid": os.getpid(), "wrapper_s": _wrapper_cost(), "records": RECORDS}
    with open(path, "w") as fh:
        json.dump(doc, fh)


_install()
atexit.register(_dump, os.environ["PERFBENCH_TRACE_DIR"])

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
