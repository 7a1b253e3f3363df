"""The retainer pool: pre-recruited workers held ready in slots.

Bernstein et al.'s retainer model pre-recruits a pool of crowd workers and
pays them a small waiting wage to stay available, eliminating recruitment
latency from the critical path.  CLAMShell builds on that model (§2.2, §3):
the Crowd Platform holds a set of slots, each corresponding to a persistent
retainer task that a worker has accepted.  A slot is *available* when the
worker is idle and *active* when they are working on a task.

This module tracks slot state, worker observations (for pool maintenance),
and waiting/working time (for cost accounting).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .worker import WorkerObservations, WorkerProfile


class SlotState(Enum):
    AVAILABLE = "available"
    ACTIVE = "active"


@dataclass
class Slot:
    """One retainer slot occupied by a worker."""

    worker: WorkerProfile
    state: SlotState = SlotState.AVAILABLE
    joined_at: float = 0.0
    #: Id of the assignment the worker is currently working on, if active.
    #: Set by :meth:`RetainerPool.mark_active`, cleared by
    #: :meth:`RetainerPool.mark_available`; the platform resolving it
    #: (``replace_worker``, ``active_assignment_for_worker``) must still
    #: check ``Assignment.status`` — a caller driving slot transitions
    #: directly can leave a stale id behind.
    current_assignment_id: Optional[int] = None
    #: Number of tasks this worker has completed since joining the pool.
    #: This is the "worker age" used in Figure 5.
    tasks_completed: int = 0
    #: Time at which the slot last became available (for waiting-cost accrual).
    available_since: float = 0.0
    #: Accumulated seconds spent waiting (paid at the waiting rate).
    waiting_seconds: float = 0.0
    #: Accumulated seconds spent working on assignments (complete or not).
    working_seconds: float = 0.0

    @property
    def worker_id(self) -> int:
        return self.worker.worker_id

    @property
    def is_available(self) -> bool:
        return self.state == SlotState.AVAILABLE


class RetainerPool:
    """The set of retainer slots currently held on the crowd platform."""

    def __init__(self) -> None:
        self._slots: dict[int, Slot] = {}
        self._observations: dict[int, WorkerObservations] = {}
        #: Workers who have left (evicted or abandoned), kept for accounting.
        self._departed_slots: list[Slot] = []
        self._departed_observations: list[WorkerObservations] = []
        #: Ascending ids of currently-available workers.  Valid as the fast
        #: path for :meth:`available_workers` only while slot insertion has
        #: been in ascending id order (true for every recruiter-driven pool:
        #: population ids are handed out monotonically), because then the
        #: legacy full-dict scan and the ascending-id walk return slots in
        #: the same order — and dispatch order is behaviour, not just speed.
        self._available_ids: list[int] = []
        self._ids_monotonic = True
        self._max_id_seen = -1

    # -- membership ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, worker_id: int) -> bool:
        return worker_id in self._slots

    @property
    def size(self) -> int:
        return len(self._slots)

    @property
    def worker_ids(self) -> list[int]:
        return list(self._slots.keys())

    def slots(self) -> list[Slot]:
        return list(self._slots.values())

    def slot(self, worker_id: int) -> Slot:
        return self._slots[worker_id]

    def worker(self, worker_id: int) -> WorkerProfile:
        return self._slots[worker_id].worker

    def observations(self, worker_id: int) -> WorkerObservations:
        return self._observations[worker_id]

    def all_observations(self) -> dict[int, WorkerObservations]:
        return dict(self._observations)

    def departed_slots(self) -> list[Slot]:
        return list(self._departed_slots)

    def add_worker(self, worker: WorkerProfile, now: float) -> Slot:
        """Seat ``worker`` in a new available slot at time ``now``."""
        if worker.worker_id in self._slots:
            raise ValueError(f"worker {worker.worker_id} is already in the pool")
        slot = Slot(worker=worker, joined_at=now, available_since=now)
        self._slots[worker.worker_id] = slot
        self._observations[worker.worker_id] = WorkerObservations(worker.worker_id)
        if worker.worker_id <= self._max_id_seen:
            # Insertion out of ascending-id order (hand-built pools): the
            # available-id fast path would reorder dispatch, so disable it.
            self._ids_monotonic = False
        else:
            self._max_id_seen = worker.worker_id
        insort(self._available_ids, worker.worker_id)
        return slot

    def remove_worker(self, worker_id: int, now: float) -> Slot:
        """Remove a worker (eviction or abandonment), finalising their waiting time."""
        if worker_id not in self._slots:
            raise KeyError(f"worker {worker_id} is not in the pool")
        slot = self._slots.pop(worker_id)
        if slot.state == SlotState.AVAILABLE:
            slot.waiting_seconds += max(0.0, now - slot.available_since)
            self._discard_available_id(worker_id)
        self._departed_slots.append(slot)
        self._departed_observations.append(self._observations.pop(worker_id))
        return slot

    # -- availability -------------------------------------------------------

    def available_workers(self) -> list[Slot]:
        # Fast path: walk the incrementally-maintained ascending-id list
        # instead of scanning every slot per simulation event (the scan was
        # a top-three profile entry at 1000-worker pools).  Identical order
        # to the legacy dict scan while insertion stayed ascending.
        if self._ids_monotonic:
            slots = self._slots
            return [slots[worker_id] for worker_id in self._available_ids]
        return [s for s in self._slots.values() if s.state is SlotState.AVAILABLE]

    def active_workers(self) -> list[Slot]:
        return [s for s in self._slots.values() if s.state == SlotState.ACTIVE]

    def num_available(self) -> int:
        return len(self._available_ids)

    def mark_active(self, worker_id: int, assignment_id: int, now: float) -> None:
        """Transition a slot from available to active, accruing waiting time."""
        slot = self._slots[worker_id]
        if slot.state != SlotState.AVAILABLE:
            raise ValueError(f"worker {worker_id} is not available")
        slot.waiting_seconds += max(0.0, now - slot.available_since)
        slot.state = SlotState.ACTIVE
        slot.current_assignment_id = assignment_id
        self._discard_available_id(worker_id)

    def mark_available(
        self, worker_id: int, now: float, worked_seconds: float, completed: bool
    ) -> None:
        """Transition a slot from active back to available.

        ``worked_seconds`` is the time spent on the just-finished assignment
        and ``completed`` says whether they finished it (as opposed to being
        terminated by straggler mitigation or eviction).
        """
        slot = self._slots[worker_id]
        if slot.state != SlotState.ACTIVE:
            raise ValueError(f"worker {worker_id} is not active")
        slot.state = SlotState.AVAILABLE
        slot.current_assignment_id = None
        slot.available_since = now
        slot.working_seconds += max(0.0, worked_seconds)
        if completed:
            slot.tasks_completed += 1
        insort(self._available_ids, worker_id)

    def _discard_available_id(self, worker_id: int) -> None:
        ids = self._available_ids
        index = bisect_left(ids, worker_id)
        if index < len(ids) and ids[index] == worker_id:
            ids.pop(index)

    # -- observations (for maintenance / TermEst) ----------------------------

    def record_completion(self, worker_id: int, latency: float) -> None:
        if worker_id in self._observations:
            self._observations[worker_id].record_completion(latency)

    def record_termination(
        self, worker_id: int, terminator_latency: Optional[float] = None
    ) -> None:
        if worker_id in self._observations:
            self._observations[worker_id].record_termination(terminator_latency)

    # -- accounting ----------------------------------------------------------

    def settle_waiting(self, now: float) -> None:
        """Accrue waiting time for all currently-available slots up to ``now``.

        Called at the end of a run so that waiting cost includes the final
        stretch of idle time.
        """
        for slot in self._slots.values():
            if slot.is_available:
                slot.waiting_seconds += max(0.0, now - slot.available_since)
                slot.available_since = now

    def total_waiting_seconds(self) -> float:
        current = sum(s.waiting_seconds for s in self._slots.values())
        departed = sum(s.waiting_seconds for s in self._departed_slots)
        return current + departed

    def total_working_seconds(self) -> float:
        current = sum(s.working_seconds for s in self._slots.values())
        departed = sum(s.working_seconds for s in self._departed_slots)
        return current + departed

    def mean_observed_latency(self) -> Optional[float]:
        """Mean pool latency (MPL): mean completed-assignment latency over the pool."""
        latencies: list[float] = []
        for obs in self._observations.values():
            latencies.extend(obs.completed_latencies)
        if not latencies:
            return None
        return float(sum(latencies) / len(latencies))

    def mean_true_latency(self) -> float:
        """Mean of the latent per-worker mean latencies of current members."""
        if not self._slots:
            raise ValueError("pool is empty")
        return float(
            sum(s.worker.mean_latency for s in self._slots.values()) / len(self._slots)
        )


def pool_from_workers(workers: Iterable[WorkerProfile], now: float = 0.0) -> RetainerPool:
    """Convenience constructor: seat each worker in a fresh pool."""
    pool = RetainerPool()
    for worker in workers:
        pool.add_worker(worker, now)
    return pool
