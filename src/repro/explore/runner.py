"""Deterministic chunked dispatch shared by every campaign-style sweep.

Generalizes the dispatch scheme the conformance campaign pioneered
(PR 4) so arbitrary experiment sweeps — design-space explorations,
conformance fuzzing, future workload scans — ride one runner:

* :func:`partition_chunks` splits a work list into contiguous chunks of
  ``ceil(n / (workers * 4))`` items.  The partition is a pure function
  of the work list and the worker count — never of pool scheduling — so
  one spec always produces the same chunks and, since results are
  concatenated in chunk order, the same outcome order.
* :func:`iter_chunked` runs the chunks serially, or for ``workers > 1``
  on the serve :class:`~repro.serve.supervisor.Supervisor` over a
  forked :class:`~repro.serve.workers.LocalFleet` (no HTTP, journal or
  store), which retries a dead worker's chunk elsewhere and folds the
  workers' metrics and spans into this process.  Without ``fork`` the
  chunks run inline, with a :class:`RuntimeWarning`.  The worker count
  only decides *where* a chunk executes, never *what* it contains.
"""

from __future__ import annotations

import contextlib
import pickle
import queue
import signal
import threading
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

from ..exceptions import ReproError

__all__ = [
    "RunInterrupted",
    "iter_chunked",
    "partition_chunks",
    "trap_signals",
]

T = TypeVar("T")

#: Chunks per worker: enough lanes that an unlucky slow chunk cannot
#: idle the rest of the pool, few enough that per-chunk IPC stays cheap.
LANES_PER_WORKER = 4


def partition_chunks(
    items: Sequence[T], workers: int
) -> List[List[T]]:
    """Contiguous, deterministic chunk partition of a work list."""
    items = list(items)
    if not items:
        return []
    lanes = max(1, workers) * LANES_PER_WORKER
    size = max(1, -(-len(items) // lanes))
    return [items[i:i + size] for i in range(0, len(items), size)]


class RunInterrupted(Exception):
    """A chunked run was stopped by a trapped signal (see
    :func:`trap_signals`) after ``completed`` of ``total`` chunks had
    been yielded — everything yielded was already consumed (and, in the
    checkpointing consumers, persisted), so the run is resumable."""

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(
            f"interrupted after {completed}/{total} chunks"
        )
        self.completed = completed
        self.total = total


@contextlib.contextmanager
def trap_signals(
    signals: Sequence[int] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[threading.Event]:
    """Trap SIGINT/SIGTERM into a stop event for the ``with`` body.

    The first signal sets the returned :class:`threading.Event` instead
    of killing the process, letting a dispatcher finish its in-flight
    chunk, checkpoint, and exit cleanly (pass the event to
    :func:`iter_chunked` as ``stop``).  The previous handlers are
    restored on exit.  Outside the main thread — where Python forbids
    handler installation — the event is returned un-trapped and simply
    never fires, so library callers embedded in servers stay safe.
    """
    stop = threading.Event()
    previous = {}

    def _handler(signum, frame):  # noqa: ARG001 - signal API shape
        stop.set()

    try:
        for signum in signals:
            previous[signum] = signal.signal(signum, _handler)
    except ValueError:  # not the main thread
        pass
    try:
        yield stop
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def iter_chunked(
    chunks: Sequence[Any],
    worker: Callable[[Any], T],
    workers: int,
    stop: Optional[threading.Event] = None,
) -> Iterator[T]:
    """Apply ``worker`` to every chunk payload, streaming the results.

    Yields one result per chunk, *in payload order*, as soon as it is
    available — the property checkpointing consumers (the sweep
    engine's incremental store writes) rely on: everything yielded
    before a crash was already persisted.  ``worker`` must be a
    module-level (picklable) callable.  With ``workers > 1`` a dead
    worker's chunk is retried on another worker, while an exception
    raised by ``worker`` itself reaches the caller once, with its own
    type — a real evaluation error is never retried.

    ``stop`` (typically from :func:`trap_signals`) requests a graceful
    interrupt: chunks in flight finish, the rest are abandoned, and
    :class:`RunInterrupted` carries the count of chunks yielded.
    Everything yielded before the interrupt was complete — a consumer
    that checkpoints per chunk can resume exactly there.
    """
    chunks = list(chunks)
    if stop is not None and stop.is_set():
        raise RunInterrupted(0, len(chunks))
    if workers > 1 and len(chunks) > 1:
        yield from _iter_on_fleet(chunks, worker, workers, stop)
        return
    for position, chunk in enumerate(chunks):
        if stop is not None and stop.is_set():
            raise RunInterrupted(position, len(chunks))
        yield worker(chunk)


def _iter_on_fleet(
    chunks: List[Any],
    worker: Callable[[Any], T],
    workers: int,
    stop: Optional[threading.Event],
) -> Iterator[T]:
    """The ``workers > 1`` branch of :func:`iter_chunked`."""
    from types import SimpleNamespace

    from ..obs import metrics as _obs_metrics
    from ..obs import state as _obs_state
    from ..obs import trace as _obs_trace
    from ..serve.supervisor import Supervisor
    from ..serve.workers import CALL_KIND

    delivered: "queue.SimpleQueue" = queue.SimpleQueue()
    blobs: "queue.SimpleQueue" = queue.SimpleQueue()

    def fold_blobs() -> None:
        # Worker obs blobs are merged here, on the caller's thread, so
        # the parent registry never has two writers.
        while not blobs.empty():
            blob = blobs.get()
            _obs_metrics.registry().merge(blob.get("metrics"))
            _obs_trace.record_spans(blob.get("spans"))

    supervisor = Supervisor(
        lambda unit_id, status, result: delivered.put(
            (int(unit_id), status, result)
        ),
        local_workers=workers,
        obs=SimpleNamespace(fold=blobs.put) if _obs_state.enabled else None,
    )
    interrupted = False
    try:
        trace = _obs_trace.current_context()
        for index, chunk in enumerate(chunks):
            supervisor.submit(
                str(index), CALL_KIND, pickle.dumps((worker, chunk)),
                trace=trace,
            )
        arrived: Dict[int, Tuple[str, Any]] = {}
        for position in range(len(chunks)):
            while position not in arrived:
                index, status, result = delivered.get()
                arrived[index] = (status, result)
            fold_blobs()
            status, result = arrived.pop(position)
            if status != "ok":  # the supervisor gave up after its retries
                raise ReproError(f"chunk {position} failed: {result}")
            raised, value = pickle.loads(result)
            if raised:
                raise value
            yield value
            if (stop is not None and stop.is_set()
                    and position + 1 < len(chunks)):
                interrupted = True
                raise RunInterrupted(position + 1, len(chunks))
    finally:
        # Queued chunks never start.  On an interrupt the chunks in
        # flight finish first; otherwise any straggler (a hedge, the
        # sibling of a failed chunk) holds work nobody waits for.
        supervisor.abandon_pending()
        if interrupted:
            supervisor.wait_quiet()
        supervisor.stop(timeout=1.0)
        fold_blobs()
        if _obs_state.enabled:
            for name, value in supervisor.counters.items():
                _obs_metrics.inc(f"repro_supervisor_{name}_total", value=value)
