"""Structured logging: the service's single logging path.

Every operational line the service emits — request completions,
failovers, worker rejoin/respawn, fault injections, drain transitions —
is an *event*: a name from
:data:`EVENT_FIELDS` plus typed fields.  One :class:`StructuredLogger`
renders events to one of three sinks:

* **unconfigured** (the default): through the stdlib :mod:`logging`
  module, on the logger named per call site (``repro.service.router``,
  ...).  Libraries embedding the service keep their
  handler/caplog behaviour, and a bare process still prints warnings to
  stderr exactly as before;
* ``repro serve --log-format json`` — one JSON object per line
  (``sort_keys`` so lines are deterministic given their fields), to
  stderr or ``--log-file``;
* ``repro serve --log-format text`` — aligned ``key=value`` pairs, same
  destination choice.

:func:`validate_event` is the schema check: the obs test-suite and the
CI ``obs-smoke`` job run every emitted JSON line through it, so the log
stream is a *contract*, not prose.
"""

from __future__ import annotations

import json
import logging as _stdlib_logging
import threading
import time
from pathlib import Path
from typing import Any, IO, Mapping

__all__ = [
    "EVENT_FIELDS",
    "StructuredLogger",
    "configure_logging",
    "get_logger",
    "validate_event",
]

#: Known events -> required fields (name -> accepted types).  ``event``,
#: ``ts`` and ``level`` are implicit on every record.
EVENT_FIELDS: dict[str, dict[str, tuple]] = {
    # One per answered request (any endpoint, worker and router alike).
    "request": {
        "trace": (str,),
        "endpoint": (str,),
        "status": (int,),
        "latency_ms": (int, float),
        "tenant": (str,),
    },
    # Router failover decisions (timeout or connection-level).
    "failover": {"worker": (int, str), "reason": (str,), "path": (str,)},
    # Supervisor: a benched-but-alive worker re-entered the ring.
    "rejoin": {"worker": (int, str), "reason": (str,)},
    # Supervisor: a dead worker respawned / a respawn attempt failed.
    "respawn": {"worker": (int, str), "restarts": (int,)},
    "respawn_failed": {"worker": (int, str), "attempt": (int,), "error": (str,)},
    # One per fault a FaultInjector actually fired.
    "fault_injected": {"site": (str,), "kind": (str,)},
    # Graceful-drain lifecycle of a server.
    "drain": {"stage": (str,)},
}

#: Default severity per event (overridable per call).
_EVENT_LEVELS = {
    "failover": "warning",
    "respawn_failed": "warning",
}

_LEVELS = {
    "debug": _stdlib_logging.DEBUG,
    "info": _stdlib_logging.INFO,
    "warning": _stdlib_logging.WARNING,
    "error": _stdlib_logging.ERROR,
}


def _render_text(event: str, fields: Mapping[str, Any]) -> str:
    parts = [f"event={event}"]
    for key, value in fields.items():
        text = str(value)
        if " " in text or '"' in text:
            text = '"' + text.replace('"', r"\"") + '"'
        parts.append(f"{key}={text}")
    return " ".join(parts)


class StructuredLogger:
    """Render events to one sink (stdlib logging, a stream, or a file)."""

    def __init__(
        self,
        fmt: str = "text",
        *,
        stream: IO[str] | None = None,
        path: Path | str | None = None,
    ) -> None:
        if fmt not in ("text", "json"):
            raise ValueError(f"log format must be 'text' or 'json', got {fmt!r}")
        self.fmt = fmt
        self._lock = threading.Lock()
        self._stream = stream
        self._path = Path(path) if path is not None else None
        self._file: IO[str] | None = None

    @property
    def configured(self) -> bool:
        """Whether events go to an explicit sink (vs stdlib logging)."""
        return self._stream is not None or self._path is not None

    def _sink(self) -> IO[str] | None:
        if self._stream is not None:
            return self._stream
        if self._path is not None:
            if self._file is None:
                # Line-buffered append: multiple worker processes may
                # share one file; whole-line writes interleave cleanly.
                self._file = open(self._path, "a", buffering=1, encoding="utf-8")
            return self._file
        return None

    def event(
        self,
        event: str,
        *,
        level: str | None = None,
        logger: str = "repro.obs",
        **fields: Any,
    ) -> None:
        """Emit one structured event (never raises into the caller)."""
        level = level or _EVENT_LEVELS.get(event, "info")
        sink = self._sink() if self.configured else None
        try:
            if sink is None:
                # Render only what stdlib logging will emit: at the default
                # WARNING level every request event would be built, then dropped.
                stdlib_logger = _stdlib_logging.getLogger(logger)
                levelno = _LEVELS.get(level, _stdlib_logging.INFO)
                if stdlib_logger.isEnabledFor(levelno):
                    stdlib_logger.log(levelno, "%s", _render_text(event, fields))
                return
            if self.fmt == "json":
                record = {"event": event, "ts": time.time(), "level": level, **fields}
                line = json.dumps(record, sort_keys=True, default=str)
            else:
                line = _render_text(event, dict(fields, ts=f"{time.time():.6f}", level=level))
            with self._lock:
                sink.write(line + "\n")
                sink.flush()
        except Exception:  # pragma: no cover - a broken sink must not 500 requests
            pass

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            finally:
                self._file = None


#: The process-wide logger; replaced by :func:`configure_logging`.
_logger = StructuredLogger()


def get_logger() -> StructuredLogger:
    return _logger


def configure_logging(
    log_format: str | None = None,
    log_file: Path | str | None = None,
    *,
    stream: IO[str] | None = None,
) -> StructuredLogger:
    """Install the process logger (``repro serve --log-format/--log-file``).

    ``--log-file`` without a format defaults to JSON lines (a file sink
    is for machines); a bare ``--log-format text`` without a file writes
    ``key=value`` lines to stderr via ``stream=sys.stderr`` at the call
    site.  Returns the installed logger.
    """
    global _logger
    fmt = log_format or ("json" if log_file is not None else "text")
    _logger.close()
    _logger = StructuredLogger(fmt, stream=stream, path=log_file)
    return _logger


def _reset_for_testing() -> None:
    global _logger
    _logger.close()
    _logger = StructuredLogger()


def validate_event(record: Any) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid event document.

    The contract the CI ``obs-smoke`` job holds every emitted JSON line
    to: known event name, numeric ``ts``, required fields present with
    the right types.  Extra fields are allowed (events may carry
    context like ``cache`` or ``key``).
    """
    if not isinstance(record, dict):
        raise ValueError(f"event must be an object, got {type(record).__name__}")
    event = record.get("event")
    if event not in EVENT_FIELDS:
        raise ValueError(f"unknown event {event!r}")
    ts = record.get("ts")
    if not isinstance(ts, (int, float)):
        raise ValueError(f"event {event!r}: 'ts' must be a number, got {ts!r}")
    level = record.get("level")
    if level not in _LEVELS:
        raise ValueError(f"event {event!r}: unknown level {level!r}")
    for field_name, types in EVENT_FIELDS[event].items():
        if field_name not in record:
            raise ValueError(f"event {event!r}: missing field {field_name!r}")
        if not isinstance(record[field_name], types):
            raise ValueError(
                f"event {event!r}: field {field_name!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(record[field_name]).__name__}"
            )
