"""Logging for the ``repro.*`` hierarchy.

Every subsystem logs through a ``repro.<area>`` logger; this module is
the single configuration entry point (wired to ``serve --log-level``
and ``--log-json``).  The JSON formatter emits one object per line —
timestamp, level, logger, message, plus the active trace ID when a
request is in flight and any ``extra={...}`` fields the call site
attached — so the slow-query log and error paths are machine-parsable
without regex archaeology.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import Any, Dict

from .trace import current_trace_id

__all__ = ["configure_logging", "JSONFormatter", "get_logger"]

#: Fields present on every LogRecord; anything else came from
#: ``extra={...}`` and is folded into the JSON object.
_STANDARD_FIELDS = frozenset(vars(logging.makeLogRecord({}))) | \
    frozenset({"message", "asctime", "taskName"})


class JSONFormatter(logging.Formatter):
    """One JSON object per line, trace-aware."""

    def format(self, record: logging.LogRecord) -> str:
        out: Dict[str, Any] = {
            "ts": round(record.created, 3),
            "time": time.strftime("%Y-%m-%dT%H:%M:%S",
                                  time.gmtime(record.created))
                    + f".{int(record.msecs):03d}Z",
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        trace_id = getattr(record, "trace_id", None) or \
            current_trace_id()
        if trace_id:
            out["trace_id"] = trace_id
        for key, value in vars(record).items():
            if key not in _STANDARD_FIELDS and key != "trace_id":
                try:
                    json.dumps(value)
                except (TypeError, ValueError):
                    value = repr(value)
                out[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            out["exception"] = self.formatException(record.exc_info)
        return json.dumps(out, sort_keys=False)


class _TraceFormatter(logging.Formatter):
    """Plain-text formatter that appends the trace ID when present."""

    def format(self, record: logging.LogRecord) -> str:
        base = super().format(record)
        trace_id = getattr(record, "trace_id", None) or \
            current_trace_id()
        if trace_id:
            base = f"{base} trace_id={trace_id}"
        return base


_PLAIN_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"


def configure_logging(level: str = "info", json_output: bool = False,
                      stream=None) -> logging.Logger:
    """(Re)configure the ``repro`` root logger.

    Idempotent: replaces any handler this function installed before,
    so tests and repeated ``serve`` invocations in one process don't
    stack handlers.  Returns the configured logger.
    """
    logger = logging.getLogger("repro")
    numeric = getattr(logging, str(level).upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level: {level!r}")
    handler = logging.StreamHandler(stream or sys.stderr)
    if json_output:
        handler.setFormatter(JSONFormatter())
    else:
        handler.setFormatter(_TraceFormatter(_PLAIN_FORMAT,
                                             "%Y-%m-%dT%H:%M:%S"))
    handler.set_name("repro-obs")
    for existing in list(logger.handlers):
        if existing.get_name() == "repro-obs":
            logger.removeHandler(existing)
    logger.addHandler(handler)
    logger.setLevel(numeric)
    logger.propagate = False
    return logger


def get_logger(area: str) -> logging.Logger:
    """The ``repro.<area>`` logger (pure convenience/consistency)."""
    return logging.getLogger(f"repro.{area}")
