"""Discrete-event simulation engine used by the crowd substrate.

The CLAMShell paper evaluates its techniques both in simulation and on live
Mechanical Turk workers.  This module provides the event engine that the
simulated crowd platform is built on: a priority queue of timestamped
payloads that owns the simulation clock.  Payloads are returned in
non-decreasing time order; ties are broken deterministically by a
monotonically increasing sequence number so that runs are reproducible for a
fixed random seed.

Heap entries are plain ``[time, seq, payload]`` lists, so the heap orders
them by (time, seq) with C-level list comparison; ``seq`` is unique, so
payloads are never compared.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

#: Payload slot of an entry that is no longer live: cancelled, or popped.
_DEAD = object()


class EventQueue:
    """A deterministic priority queue of timestamped payloads.

    Payloads with equal timestamps are returned in insertion order.  The
    queue never moves time backwards: scheduling earlier than the current
    clock raises ``ValueError``.  Cancellation is lazy and O(1): a cancelled
    entry stays in the heap and :meth:`pop` skips it.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._heap: list[list[Any]] = []
        self._counter = itertools.count()
        self._now = float(start_time)
        self._events_scheduled = 0
        self._events_processed = 0
        #: Number of live entries in the heap.  Maintained on
        #: schedule/pop/cancel so ``len(queue)`` / ``bool(queue)`` are O(1);
        #: the platform's dispatch loop checks liveness once per event, so a
        #: heap scan here would make the whole simulation quadratic.
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total entries ever scheduled onto this queue."""
        return self._events_scheduled

    @property
    def events_processed(self) -> int:
        """Total live entries popped off this queue."""
        return self._events_processed

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(self, time: float, payload: Any) -> list[Any]:
        """Schedule ``payload`` at absolute simulation ``time``.

        Returns the heap entry, the handle :meth:`cancel` takes.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at t={time:.3f} before current time "
                f"t={self._now:.3f}"
            )
        entry = [float(time), next(self._counter), payload]
        heapq.heappush(self._heap, entry)
        self._events_scheduled += 1
        self._live += 1
        return entry

    def cancel(self, entry: list[Any]) -> None:
        """Cancel a scheduled entry; a cancelled or popped one is ignored."""
        if entry[2] is not _DEAD:
            entry[2] = _DEAD
            self._live -= 1

    def pop(self) -> Any:
        """Remove the next live entry, advance the clock to it, return its payload."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            payload = entry[2]
            if payload is _DEAD:
                continue
            entry[2] = _DEAD
            self._now = entry[0]
            self._events_processed += 1
            self._live -= 1
            return payload
        raise IndexError("pop from an empty EventQueue")

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time`` without processing events.

        Used when an external driver (e.g. the batcher) wants to account for
        think-time between batches.  Raises if ``time`` is in the past.
        """
        if time < self._now:
            raise ValueError(
                f"cannot advance clock backwards from {self._now:.3f} to {time:.3f}"
            )
        self._now = float(time)
