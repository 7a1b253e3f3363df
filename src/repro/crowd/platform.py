"""The simulated crowd platform.

This is the substrate that stands in for Amazon Mechanical Turk in the live
experiments and for the authors' trace-driven simulator in the simulated ones
(§6.1).  It owns the worker population, the retainer pool, and the event
queue, and exposes the primitives the CLAMShell core needs:

* seat workers into the retainer pool (initial recruitment);
* start an assignment of a task to an available worker — the platform draws
  the worker's latency and labels from their latent profile and schedules the
  completion event;
* terminate an assignment (straggler mitigation pre-emption, or eviction);
* replace a pool worker with a new one (pool maintenance);
* report raw cost quantities (waiting seconds, records labeled, assignments).

The platform deliberately knows nothing about batching, straggler mitigation
policy, maintenance thresholds, or learning — those live in ``repro.core``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from typing import Protocol, runtime_checkable

from .events import Event, EventKind, EventQueue
from .pool import RetainerPool
from .recruitment import BackgroundReserve, Recruiter, RecruitmentParameters
from .tasks import Assignment, AssignmentStatus, Task
from .worker import WorkerDrawBlock, WorkerPopulation, WorkerProfile


@runtime_checkable
class AssignmentObserver(Protocol):
    """Callbacks fired as assignments move through their lifecycle.

    The platform owns every assignment transition — including terminations
    triggered from inside :meth:`SimulatedCrowdPlatform.replace_worker`
    during pool maintenance, which the LifeGuard never sees directly — so
    observers registered here get an exact event stream.  The straggler
    mitigator's incremental active-task index is the primary consumer.
    """

    def assignment_started(self, task: Task, assignment: Assignment) -> None: ...

    def assignment_completed(self, task: Task, assignment: Assignment) -> None: ...

    def assignment_terminated(self, task: Task, assignment: Assignment) -> None: ...


@dataclass
class PlatformCounters:
    """Raw quantities the cost model is computed from.

    The ``probes_*`` pair is diagnostic, not monetary: the LifeGuard counts
    every ``pick_task`` dispatch probe it issues (``probes_attempted``) and
    every probe that found nothing placeable (``probes_futile``).  The
    invariant ``probes_attempted == assignments_started + probes_futile``
    always holds, and the benchmark schema surfaces the pair under its own
    ``dispatch`` section so the event-level placeability gate's effect is a
    first-class metric instead of being inferred from wall time.
    """

    assignments_started: int = 0
    assignments_completed: int = 0
    assignments_terminated: int = 0
    records_labeled_paid: int = 0
    workers_recruited: int = 0
    workers_replaced: int = 0
    workers_abandoned: int = 0
    recruitment_seconds_total: float = 0.0
    probes_attempted: int = 0
    probes_futile: int = 0


class SimulatedCrowdPlatform:
    """A retainer-pool crowd platform backed by simulated workers."""

    def __init__(
        self,
        population: WorkerPopulation,
        recruitment: Optional[RecruitmentParameters] = None,
        seed: int = 0,
        num_classes: int = 2,
        abandonment_rate: float = 0.0,
        termination_overhead_seconds: float = 2.0,
    ) -> None:
        """Create a platform.

        Parameters
        ----------
        population:
            The global worker distribution recruits are drawn from.
        recruitment:
            Recruitment-latency parameters (reposting model of §6.1).
        seed:
            Seed for latency/label draws.
        num_classes:
            Number of label classes workers choose among.
        abandonment_rate:
            Probability that a worker leaves the pool after completing a task
            (the pool is then below target size until maintenance refills it).
        termination_overhead_seconds:
            Seconds a worker needs to acknowledge a terminated assignment
            before they can accept new work (§6.3 notes this is a real cost
            of aggressive straggler mitigation).
        """
        if not 0.0 <= abandonment_rate < 1.0:
            raise ValueError("abandonment_rate must be in [0, 1)")
        if termination_overhead_seconds < 0:
            raise ValueError("termination_overhead_seconds must be non-negative")
        self.population = population
        self.pool = RetainerPool()
        self.queue = EventQueue()
        self.recruiter = Recruiter(population, recruitment, seed=seed + 1)
        self.reserve = BackgroundReserve(self.recruiter, target_size=0)
        self.num_classes = num_classes
        self.abandonment_rate = abandonment_rate
        self.termination_overhead_seconds = termination_overhead_seconds
        self.counters = PlatformCounters()
        #: Platform-stream generator.  Latency and label draws moved to the
        #: per-worker :class:`WorkerDrawBlock` streams; this stream now
        #: serves only the post-completion abandonment coin flips, consumed
        #: in completion order.
        self._rng = np.random.default_rng(seed)
        self._seed = int(seed)
        #: Per-seated-worker pre-drawn RNG blocks, keyed by worker id and
        #: created lazily on the worker's first draw.  Entries are dropped
        #: when the worker departs; ids are never reseated within a run, so
        #: a dropped stream is never resumed.
        self._draw_blocks: dict[int, WorkerDrawBlock] = {}
        #: Per-assignment state, indexed by assignment id: ids are dense
        #: because ``_assignment_counter`` issues them in start order.
        #: Activity is read from ``Assignment.status``, the only copy; an
        #: event slot is cleared once its assignment completes or terminates.
        self._assignment_counter = itertools.count()
        self._assignments: list[Assignment] = []
        self._tasks: list[Task] = []
        self._events: list[Optional[Event]] = []
        self._observers: list[AssignmentObserver] = []

    # -- assignment observers ---------------------------------------------------

    def add_assignment_observer(self, observer: AssignmentObserver) -> None:
        """Register ``observer`` for assignment lifecycle notifications."""
        self._observers.append(observer)

    def remove_assignment_observer(self, observer: AssignmentObserver) -> None:
        """Unregister ``observer``; missing observers are ignored."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.queue.now

    # -- pool construction ----------------------------------------------------

    def initialize_pool(self, size: int) -> float:
        """Recruit ``size`` workers into the retainer pool.

        Returns the total recruitment wall-clock latency (the time until the
        last worker joined).  Following the paper's measurement methodology,
        recruitment time is amortised across batches and *not* added to the
        simulation clock: latency is measured from the moment the first task
        is sent to the pool.
        """
        if size < 1:
            raise ValueError("pool size must be >= 1")
        latencies = []
        for _ in range(size):
            worker, latency = self.recruiter.recruit()
            latencies.append(latency)
            self.pool.add_worker(worker, now=self.now)
            self.counters.workers_recruited += 1
            self.counters.recruitment_seconds_total += latency
        return float(max(latencies)) if latencies else 0.0

    def configure_reserve(self, target_size: int) -> None:
        """Set the background-recruitment reserve size used by maintenance."""
        self.reserve.target_size = target_size
        self.reserve.tick(self.now)

    # -- assignments -----------------------------------------------------------

    def _block_for(self, worker: WorkerProfile) -> WorkerDrawBlock:
        """The pre-drawn RNG block of ``worker``, created on first draw."""
        block = self._draw_blocks.get(worker.worker_id)
        if block is None:
            block = WorkerDrawBlock(worker, seed=self._seed)
            self._draw_blocks[worker.worker_id] = block
        return block

    def _drop_draw_block(self, worker_id: int) -> None:
        """Forget a departed worker's block; ids are never reseated."""
        self._draw_blocks.pop(worker_id, None)

    def start_assignment(self, task: Task, worker_id: int) -> Assignment:
        """Assign ``task`` to the available pool worker ``worker_id``.

        Draws the worker's latency for this task (from the worker's
        pre-drawn RNG block), creates the assignment, schedules its
        completion event, and marks the slot active.
        """
        slot = self.pool.slot(worker_id)
        if not slot.is_available:
            raise ValueError(f"worker {worker_id} is not available")
        now = self.queue.now
        duration = self._block_for(slot.worker).draw_latency(task.num_records)
        assignment = Assignment(
            assignment_id=next(self._assignment_counter),
            task_id=task.task_id,
            worker_id=worker_id,
            started_at=now,
            duration=duration,
        )
        task.add_assignment(assignment)
        self.pool.mark_active(worker_id, assignment.assignment_id, now)
        event = self.queue.schedule_in(
            duration, EventKind.ASSIGNMENT_FINISHED, payload=assignment
        )
        self._assignments.append(assignment)
        self._tasks.append(task)
        self._events.append(event)
        self.counters.assignments_started += 1
        for observer in self._observers:
            observer.assignment_started(task, assignment)
        return assignment

    def complete_assignment(self, assignment: Assignment) -> list[int]:
        """Resolve a finished assignment: draw labels, free the worker.

        Returns the labels produced.  The caller (LifeGuard) is responsible
        for recording the answer on the task and deciding what the worker
        does next.  If the worker abandons the pool after this task, they are
        removed and the caller can detect it via ``worker_id in platform.pool``.
        """
        if assignment.status != AssignmentStatus.ACTIVE:
            raise ValueError("assignment is not active")
        now = self.queue.now
        worker_id = assignment.worker_id
        task = self._tasks[assignment.assignment_id]
        worker = self.pool.worker(worker_id)
        labels = self._block_for(worker).draw_labels(
            task.true_labels, self.num_classes
        )
        assignment.complete(now, labels)
        self.pool.mark_available(
            worker_id,
            now=now,
            worked_seconds=assignment.duration,
            completed=True,
        )
        self.pool.record_completion(worker_id, assignment.duration)
        self.counters.assignments_completed += 1
        self.counters.records_labeled_paid += task.num_records
        self._events[assignment.assignment_id] = None
        for observer in self._observers:
            observer.assignment_completed(task, assignment)

        if self.abandonment_rate > 0 and self._rng.random() < self.abandonment_rate:
            self.pool.remove_worker(worker_id, now)
            self._drop_draw_block(worker_id)
            self.counters.workers_abandoned += 1
        return labels

    def terminate_assignment(
        self, assignment: Assignment, terminator_latency: Optional[float] = None
    ) -> None:
        """Pre-empt an active assignment (straggler mitigation or eviction).

        The worker is still paid for the records in the task (the counters
        reflect this), and becomes available again after a small
        acknowledgement overhead.
        """
        if assignment.status != AssignmentStatus.ACTIVE:
            raise ValueError("assignment is not active")
        now = self.queue.now
        assignment_id = assignment.assignment_id
        event = self._events[assignment_id]
        if event is not None:
            event.cancel()
            self._events[assignment_id] = None
        task = self._tasks[assignment_id]
        assignment.terminate(now)
        worked = now - assignment.started_at
        if assignment.worker_id in self.pool:
            self.pool.mark_available(
                assignment.worker_id,
                now=now + self.termination_overhead_seconds,
                worked_seconds=worked + self.termination_overhead_seconds,
                completed=False,
            )
            self.pool.record_termination(assignment.worker_id, terminator_latency)
        self.counters.assignments_terminated += 1
        # Workers are paid for partial work on terminated tasks (§4.1).
        self.counters.records_labeled_paid += task.num_records
        for observer in self._observers:
            observer.assignment_terminated(task, assignment)

    def task_for_assignment(self, assignment: Assignment) -> Task:
        return self._tasks[assignment.assignment_id]

    def _active_assignment(self, assignment_id: int) -> Optional[Assignment]:
        """The assignment, or ``None`` once it completed or terminated."""
        assignment = self._assignments[assignment_id]
        return assignment if assignment.is_active else None

    # -- pool maintenance hooks ------------------------------------------------

    def replace_worker(
        self, worker_id: int, replacement: Optional[WorkerProfile] = None
    ) -> Optional[WorkerProfile]:
        """Evict ``worker_id`` and seat ``replacement`` (or a reserve worker).

        Any active assignment of the evicted worker is terminated first.
        Returns the replacement profile, or ``None`` if no replacement was
        available (the pool shrinks until the reserve catches up).
        """
        if worker_id not in self.pool:
            raise KeyError(f"worker {worker_id} is not in the pool")
        slot = self.pool.slot(worker_id)
        # A non-None ``current_assignment_id`` does not by itself mean the
        # assignment is still active: callers that drive slot transitions
        # directly can leave a stale id behind, and the platform's own
        # complete/terminate-then-replace sequences at one timestamp must
        # never double-terminate.  Check ``Assignment.status`` before
        # terminating — ``tests/test_platform.py`` pins the same-timestamp
        # and stale-watermark replacement paths.
        current = slot.current_assignment_id
        if current is not None:
            active = self._active_assignment(current)
            if active is not None:
                self.terminate_assignment(active)
        self.pool.remove_worker(worker_id, self.now)
        self._drop_draw_block(worker_id)

        if replacement is None:
            replacement = self.reserve.take_replacement(self.now)
        if replacement is None:
            return None
        self.pool.add_worker(replacement, now=self.now)
        self.counters.workers_replaced += 1
        self.counters.workers_recruited += 1
        return replacement

    def refill_pool(self, target_size: int, as_replacements: bool = True) -> int:
        """Seat reserve workers until the pool reaches ``target_size``.

        Returns the number of workers added.  Used to recover from
        abandonment.  A refill seat normally replaces a worker the pool lost
        (abandonment, or an eviction that found no reserve ready at the
        time), so it counts toward ``workers_replaced`` exactly like the
        ``replace_worker`` path — once, when the seat actually happens.
        Callers growing the pool *past* its prior size (starvation recovery
        with no configured target) pass ``as_replacements=False``: those
        seats replace nobody and count only as recruitment.
        """
        added = 0
        while len(self.pool) < target_size:
            worker = self.reserve.take_replacement(self.now)
            if worker is None:
                break
            self.pool.add_worker(worker, now=self.now)
            self.counters.workers_recruited += 1
            if as_replacements:
                self.counters.workers_replaced += 1
            added += 1
        return added

    # -- bookkeeping ------------------------------------------------------------

    def settle(self) -> None:
        """Finalise waiting-time accrual at the end of a run."""
        self.pool.settle_waiting(self.now)

    def active_assignment_for_worker(self, worker_id: int) -> Optional[Assignment]:
        slot = self.pool.slot(worker_id)
        current = slot.current_assignment_id
        if current is None:
            return None
        return self._active_assignment(current)
