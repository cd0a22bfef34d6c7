"""Structured logging for the serve daemon and workers.

Replaces the historical ``print(..., flush=True)`` scattering with one
logger shape: ``HH:MM:SS LEVEL component [id=... id=...]: message``.
The *message text is unchanged* relative to the old prints — consumers
that parse stdout (the chaos tests, the CI daemon smoke scripts) key
on substrings like ``"serving on "`` and keep working; the structured
ids ride in the bracketed tag *before* the message so suffix parses
(``line.split("serving on ")[1]``) still yield clean values.

Level filtering comes from ``REPRO_LOG`` (``debug``/``info``/``warn``/
``error``/``off``; default ``info``) and is independent of the
``REPRO_OBS`` metrics/tracing switch — a daemon always logs.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict

from . import state

__all__ = ["ObsLogger", "get_logger", "set_level"]

_LEVELS = {
    "debug": 10, "info": 20, "warn": 30, "warning": 30,
    "error": 40, "off": 100,
}


def set_level(level: str) -> None:
    """Override the ``REPRO_LOG`` threshold (tests, programmatic use)."""
    state.log_level = level


def _threshold() -> int:
    return _LEVELS.get(str(state.log_level).lower(), 20)


class ObsLogger:
    """One named component's logger; emits to stdout, flushed."""

    __slots__ = ("component", "stream")

    def __init__(self, component: str, stream=None) -> None:
        self.component = component
        self.stream = stream

    def _emit(
        self, levelno: int, levelname: str, message: str,
        ids: Dict[str, Any],
    ) -> None:
        if levelno < _threshold():
            return
        tag = " ".join(
            f"{key}={value}" for key, value in ids.items()
            if value is not None
        )
        prefix = f"{time.strftime('%H:%M:%S')} {levelname:<5} {self.component}"
        if tag:
            prefix += f" [{tag}]"
        stream = self.stream if self.stream is not None else sys.stdout
        try:
            print(f"{prefix}: {message}", file=stream, flush=True)
        except (OSError, ValueError):
            pass  # a closed/broken stream must not kill the daemon

    def debug(self, message: str, **ids: Any) -> None:
        self._emit(10, "DEBUG", message, ids)

    def info(self, message: str, **ids: Any) -> None:
        self._emit(20, "INFO", message, ids)

    def warn(self, message: str, **ids: Any) -> None:
        self._emit(30, "WARN", message, ids)

    warning = warn

    def error(self, message: str, **ids: Any) -> None:
        self._emit(40, "ERROR", message, ids)


_LOGGERS: Dict[str, ObsLogger] = {}


def get_logger(component: str) -> ObsLogger:
    logger = _LOGGERS.get(component)
    if logger is None:
        logger = _LOGGERS[component] = ObsLogger(component)
    return logger
