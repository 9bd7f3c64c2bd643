"""Stream the event stream to a JSON-lines file.

One JSON object per line, one line per event::

    {"event": "TransferCompleted", "at": 1.04, "src": "trainer-0", ...}

Every record has ``event`` (the event class name) and ``at`` (simulated
seconds); the remaining keys are the event dataclass's fields.  Values
that are not JSON-native (e.g. CIDs) are stringified.  The format is
tail-able and concatenation-safe — the raw material for timeline
analysis; ``python -m repro.cli run`` writes one as ``trace.jsonl``.
Path destinations are truncated by default; pass ``append=True`` to
extend an existing timeline instead (e.g. across separate runs).

Writes are buffered: encoded lines accumulate until either
``flush_lines`` records or ``flush_bytes`` encoded bytes are pending,
then reach the stream in one ``write`` — on a polling-heavy run the
per-event ``write`` call dominated export cost.  :meth:`~
JsonlTraceExporter.close` (also via the context manager, including on
the error path) always drains the buffer, so a crashed run still
leaves every exported event on disk.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, IO, List, Tuple, Union

from .bus import EventBus

__all__ = ["JsonlTraceExporter"]

#: Default buffered-record and buffered-byte limits before a flush.
DEFAULT_FLUSH_LINES = 256
DEFAULT_FLUSH_BYTES = 64 * 1024


class JsonlTraceExporter:
    """Subscribes to every event and writes each as one JSON line."""

    def __init__(self, bus: EventBus,
                 destination: Union[str, "os.PathLike[str]", IO[str]],
                 append: bool = False,
                 flush_lines: int = DEFAULT_FLUSH_LINES,
                 flush_bytes: int = DEFAULT_FLUSH_BYTES):
        """
        Parameters
        ----------
        bus:
            The bus to export.
        destination:
            A path (opened for writing, closed by :meth:`close`) or any
            object with ``write(str)`` (left open; caller owns it).
        append:
            When ``destination`` is a path, open it in append mode
            instead of truncating.  Ignored for stream destinations.
        flush_lines / flush_bytes:
            Buffered-record / encoded-byte bounds; reaching either
            drains the buffer to the stream.  ``flush_lines=1`` restores
            unbuffered per-event writes.
        """
        if flush_lines < 1:
            raise ValueError("flush_lines must be >= 1")
        if flush_bytes < 1:
            raise ValueError("flush_bytes must be >= 1")
        if hasattr(destination, "write"):
            self._stream: IO[str] = destination  # type: ignore[assignment]
            self._owns_stream = False
        else:
            self._stream = open(os.fspath(destination),
                                "a" if append else "w", encoding="utf-8")
            self._owns_stream = True
        self.flush_lines = int(flush_lines)
        self.flush_bytes = int(flush_bytes)
        self.events_written = 0
        self.flushes = 0
        self._buffer: List[str] = []
        self._buffered_bytes = 0
        self._fields: Dict[type, Tuple[str, ...]] = {}
        self._subscription = bus.subscribe(self._handle)

    # -- lifecycle ---------------------------------------------------------------

    def flush(self) -> None:
        """Drain the buffer to the stream (no-op when empty)."""
        if not self._buffer:
            return
        self._stream.write("".join(self._buffer))
        self._buffer.clear()
        self._buffered_bytes = 0
        self.flushes += 1

    def close(self) -> None:
        """Unsubscribe and flush; closes the stream if we opened it."""
        self._subscription.cancel()
        if self._owns_stream:
            if not self._stream.closed:
                self.flush()
                self._stream.close()
        else:
            self.flush()
            self._stream.flush()

    def __enter__(self) -> "JsonlTraceExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- event handling ----------------------------------------------------------

    def _handle(self, event) -> None:
        cls = type(event)
        names = self._fields.get(cls)
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(event))
            self._fields[cls] = names
        record = {"event": cls.__name__}
        for name in names:
            record[name] = getattr(event, name)
        line = json.dumps(record, default=str) + "\n"
        self._buffer.append(line)
        self._buffered_bytes += len(line)
        self.events_written += 1
        if (len(self._buffer) >= self.flush_lines
                or self._buffered_bytes >= self.flush_bytes):
            self.flush()
