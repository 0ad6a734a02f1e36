"""Trace propagation: ids, the wire header, and the ambient context.

A :class:`TraceContext` is generated once per request at whichever server
is the front door (the single-process :class:`~repro.service.server
.SolveServer` or the fleet :class:`~repro.service.router.RouterServer`)
and then *propagated*: the router forwards it to the owning worker in the
``X-Repro-Trace`` header, the worker parses it back, and every layer in
between reads it from a :mod:`contextvars` variable.  asyncio tasks
inherit it automatically; *threads* (the solver thread, executor pools)
do **not**, so off-loop hops carry the context explicitly (a cold solve
takes its request's trace along and runs under :func:`use_trace`) — and
the solver paths that run off-context by design keep their payload bytes
identical with tracing on or off.

Wire format (one header, three ``;``-separated fields)::

    X-Repro-Trace: <trace_id>;<span_id>;<tenant>

Both ids are 16 lowercase hex chars.  A malformed header is *replaced*
(new trace), never an error: tracing must not be able to fail a request.

Tenants come from the optional ``X-Repro-Tenant`` request header and are
sanitized (bounded charset and length, else ``"other"``) before they are
used as a metrics label — a client cannot grow label cardinality or break
the Prometheus exposition with a hostile tenant string.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

__all__ = [
    "TRACE_HEADER",
    "TENANT_HEADER",
    "DEFAULT_TENANT",
    "TraceContext",
    "new_trace",
    "parse_trace_header",
    "current_trace",
    "set_current",
    "use_trace",
    "sanitize_tenant",
]

#: The propagation header (request *and* response; lowercase on parse —
#: the HTTP front-ends normalise header names).
TRACE_HEADER = "X-Repro-Trace"

#: Optional request header naming the tenant for per-tenant metrics labels.
TENANT_HEADER = "X-Repro-Tenant"

#: The tenant label when the client names none.
DEFAULT_TENANT = "default"

#: Sanitized tenant values: bounded charset, bounded length.
_TENANT_RE = re.compile(r"[A-Za-z0-9_.:-]{1,32}\Z")

_ID_RE = re.compile(r"[0-9a-f]{16}\Z")


def _new_id() -> str:
    """16 hex chars of OS entropy (no global RNG state touched)."""
    return os.urandom(8).hex()


def sanitize_tenant(value: str | None) -> str:
    """A tenant string safe to use as a metrics label value.

    Anything outside the bounded charset/length collapses onto
    ``"other"`` — one bounded series, not one per hostile client.
    """
    if value is None or value == "":
        return DEFAULT_TENANT
    return value if _TENANT_RE.match(value) else "other"


@dataclass(frozen=True)
class TraceContext:
    """One request's identity: trace id, current span id, tenant."""

    trace_id: str
    span_id: str
    tenant: str = DEFAULT_TENANT

    def child(self) -> "TraceContext":
        """Same trace, fresh span id — for the next hop's root span."""
        return replace(self, span_id=_new_id())

    def header_value(self) -> str:
        """Render for the ``X-Repro-Trace`` wire header."""
        return f"{self.trace_id};{self.span_id};{self.tenant}"


def new_trace(tenant: str | None = None) -> TraceContext:
    """A fresh front-door trace (sanitizes ``tenant``)."""
    return TraceContext(
        trace_id=_new_id(), span_id=_new_id(), tenant=sanitize_tenant(tenant)
    )


def parse_trace_header(value: str | None, *, tenant: str | None = None) -> TraceContext:
    """Parse one ``X-Repro-Trace`` value, or mint a new trace.

    A missing/malformed header yields a *new* trace rather than an error;
    an explicit ``tenant`` (from ``X-Repro-Tenant``) wins over the one
    riding in the trace header.
    """
    if value:
        parts = value.split(";")
        if len(parts) == 3 and _ID_RE.match(parts[0]) and _ID_RE.match(parts[1]):
            return TraceContext(
                trace_id=parts[0],
                span_id=parts[1],
                tenant=sanitize_tenant(tenant if tenant else parts[2]),
            )
    return new_trace(tenant)


#: The ambient trace of the request currently being served.  asyncio
#: tasks copy the context; plain threads do not (off-loop hops pass the
#: TraceContext explicitly instead).
_current: ContextVar[TraceContext | None] = ContextVar("repro_trace", default=None)


def current_trace() -> TraceContext | None:
    """The trace of the request being served here, if any."""
    return _current.get()


def set_current(ctx: TraceContext | None):
    """Set the ambient trace; returns the reset token."""
    return _current.set(ctx)


def reset_current(token) -> None:
    _current.reset(token)


@contextmanager
def use_trace(ctx: TraceContext | None):
    """Scope the ambient trace to a ``with`` block (tests, CLI paths)."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)
