"""Stream the event stream to a JSON-lines file.

One JSON object per line, one line per event::

    {"event": "TransferCompleted", "at": 1.04, "src": "trainer-0", ...}

Every record has ``event`` (the event class name) and ``at`` (simulated
seconds); the remaining keys are the event's fields, in declaration
order.  Values that are not JSON-native (e.g. CIDs) are stringified.
The format is tail-able and concatenation-safe — the raw material for
timeline analysis; ``python -m repro.cli run`` writes one as
``trace.jsonl``.
A path destination is truncated.  :func:`read_trace` reads a trace back
as typed events.

Writes are buffered: encoded lines accumulate until either
:data:`FLUSH_LINES` records or :data:`FLUSH_BYTES` encoded bytes are
pending, then reach the stream in one ``write`` — on a polling-heavy run the
per-event ``write`` call dominated export cost.  :meth:`~
JsonlTraceExporter.close` (also via the context manager, including on
the error path) always drains the buffer, so a crashed run still
leaves every exported event on disk.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable, Iterator, List, Sequence, Union

from .bus import EventBus
from .events import EVENT_TYPES

#: Buffered-record and buffered-byte limits before a flush.
FLUSH_LINES = 256
FLUSH_BYTES = 64 * 1024

#: ``json.dumps(record, default=str)``, the same bytes, without building
#: an encoder per record.
_encode = json.JSONEncoder(default=str).encode


def event_record(event: tuple) -> dict:
    """One event as a JSON-friendly dict: the trace record schema."""
    record = {"event": type(event).__name__}
    record.update(zip(event._fields, event))
    return record


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def read_trace(lines: Iterable[str],
               types: Sequence[type] = EVENT_TYPES) -> Iterator[tuple]:
    """The inverse of :func:`event_record`: the records of ``types`` in
    a trace's ``lines``, in order, as events (JSON lists as tuples,
    stringified values as strings).  Another type's record is skipped
    by the name at its head, before it is decoded."""
    by_name = {cls.__name__: cls for cls in types}
    start = len('{"event": "')
    for line in lines:
        cls = by_name.get(line[start:line.index('"', start)])
        if cls is not None:
            yield cls(**{key: _tuples(value) for key, value
                         in json.loads(line).items() if key != "event"})


class JsonlTraceExporter:
    """Subscribes to every event and writes each as one JSON line."""

    def __init__(self, bus: EventBus,
                 destination: Union[str, "os.PathLike[str]", IO[str]]):
        """
        Parameters
        ----------
        bus:
            The bus to export.
        destination:
            A path (opened for writing, closed by :meth:`close`) or any
            object with ``write(str)`` (left open; caller owns it).
        """
        if hasattr(destination, "write"):
            self._stream: IO[str] = destination  # type: ignore[assignment]
            self._owns_stream = False
        else:
            self._stream = open(os.fspath(destination), "w",
                                encoding="utf-8")
            self._owns_stream = True
        self.events_written = 0
        self._buffer: List[str] = []
        self._buffered_bytes = 0
        self._subscription = bus.subscribe(self._handle)

    # -- lifecycle ---------------------------------------------------------------

    def flush(self) -> None:
        """Drain the buffer to the stream (no-op when empty)."""
        if not self._buffer:
            return
        self._stream.write("".join(self._buffer))
        self._buffer.clear()
        self._buffered_bytes = 0

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
        line = _encode(event_record(event)) + "\n"
        self._buffer.append(line)
        self._buffered_bytes += len(line)
        self.events_written += 1
        if (len(self._buffer) >= FLUSH_LINES
                or self._buffered_bytes >= FLUSH_BYTES):
            self.flush()
