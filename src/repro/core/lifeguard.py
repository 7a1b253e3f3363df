"""LifeGuard: the per-batch scheduler and mitigation loop.

The Batcher hands LifeGuard a batch of tasks; LifeGuard schedules them onto
retainer-pool slots, reacts to assignment completions, applies straggler
mitigation when workers run out of unassigned work, invokes pool maintenance
asynchronously as labeling proceeds, and returns once every task in the batch
is complete (Figure 1, §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..api.backends import CrowdBackend
from ..crowd.events import EventKind
from ..crowd.tasks import Batch, Task
from .maintainer import PoolMaintainer
from .mitigator import StragglerMitigator
from .quality import majority_vote


class DispatchGate:
    """Event-level placeability gate for the dispatch probe loop.

    The LifeGuard probes ``mitigator.pick_task`` once per available worker
    after every simulation event.  Once mitigation saturates — every task
    assigned, nothing starved, every duplicate cap reached — all of those
    probes provably return ``None`` until some lifecycle event changes
    placeability, yet the ungated loop kept paying for them (1.36M probes
    for 8k events at the 1000-worker capped tier, ~85% of tier wall time).

    The gate remembers the proof: it *closes* when the LifeGuard shows no
    probe can place work (``placeable_count`` is zero, or — for batches
    without quality control, where placeability is worker-independent — a
    probe just returned ``None``), and *re-arms* on exactly the callbacks
    that can create placeable work:

    * an assignment completing or being terminated (active counts drop, so
      a task may become starved or fall back under its duplicate cap) —
      delivered through the platform's assignment-observer hooks, which
      also cover platform-internal terminations (maintenance evictions,
      abandonment-driven churn) the LifeGuard never sees directly;
    * an assignment starting (a fresh duplication target appears);
    * consensus completing a task (its losing replicas are about to be
      terminated) — via :meth:`task_completed`;
    * the pool being refilled (a previously unservable batch may now have
      takers) — via :meth:`pool_refilled`.

    Skipping a closed gate is RNG-stream-invisible: futile probes never
    draw from the mitigator's RNG, so the gated run's labels and cost
    counters are bit-identical to the ungated run's (held by the gate
    on/off cells in ``tests/equivalence.py``).
    """

    __slots__ = ("armed",)

    def __init__(self) -> None:
        #: Armed means dispatch must probe; closed means every probe is
        #: provably futile until a re-arming callback fires.
        self.armed = True

    def close(self) -> None:
        self.armed = False

    def rearm(self) -> None:
        self.armed = True

    # -- platform assignment observer hooks ---------------------------------

    def assignment_started(self, task, assignment) -> None:
        self.armed = True

    def assignment_completed(self, task, assignment) -> None:
        self.armed = True

    def assignment_terminated(self, task, assignment) -> None:
        self.armed = True

    # -- LifeGuard notifications --------------------------------------------

    def task_completed(self, task) -> None:
        """Consensus reached: losing replicas will free workers and tasks."""
        self.armed = True

    def pool_refilled(self, workers_added: int) -> None:
        """Workers were seated; re-arm only if the pool actually grew."""
        if workers_added > 0:
            self.armed = True


@dataclass(frozen=True)
class AssignmentRecord:
    """Flattened view of one assignment, for the Figure-13 timeline."""

    batch_index: int
    task_id: int
    worker_id: int
    started_at: float
    ended_at: float
    completed: bool


@dataclass
class BatchOutcome:
    """Everything LifeGuard learned from running one batch."""

    batch: Batch
    batch_index: int
    dispatched_at: float
    completed_at: float
    #: Consensus label per record id (majority vote when redundancy is on,
    #: otherwise the first answer).
    labels: dict[int, int] = field(default_factory=dict)
    #: Per-task completion latencies, measured from batch dispatch.
    task_latencies: list[float] = field(default_factory=list)
    #: (completion time, records in the task) in completion order, for
    #: labels-over-time curves.
    completion_times: list[tuple[float, int]] = field(default_factory=list)
    assignment_records: list[AssignmentRecord] = field(default_factory=list)
    assignments_started: int = 0
    assignments_terminated: int = 0
    workers_replaced: int = 0
    #: Mean latency of assignments completed during this batch (the per-batch
    #: MPL series of Figure 6).
    mean_pool_latency: Optional[float] = None

    @property
    def batch_latency(self) -> float:
        return self.completed_at - self.dispatched_at


class LifeGuard:
    """Runs batches of tasks against the crowd platform."""

    def __init__(
        self,
        platform: CrowdBackend,
        mitigator: StragglerMitigator,
        maintainer: Optional[PoolMaintainer] = None,
        maintain_during_batch: bool = True,
        pool_target_size: Optional[int] = None,
        use_dispatch_gate: bool = True,
    ) -> None:
        """Create a LifeGuard.

        ``maintain_during_batch`` matches the paper's "asynchronously as
        labeling proceeds" behaviour; when false, maintenance only runs
        between batches.  ``pool_target_size`` is used to refill the pool
        after abandonment.  ``use_dispatch_gate`` enables the event-level
        :class:`DispatchGate` over the probe loop (disabled only by the
        equivalence tests and the gate-off benchmark baselines; requires a
        backend with assignment-observer support, and silently degrades to
        ungated probing otherwise).
        """
        self.platform = platform
        self.mitigator = mitigator
        self.maintainer = maintainer
        self.maintain_during_batch = maintain_during_batch
        self.pool_target_size = pool_target_size
        self.use_dispatch_gate = use_dispatch_gate
        self._gate: Optional[DispatchGate] = None

    # -- public API -----------------------------------------------------------

    def run_batch(self, batch: Batch, batch_index: int = 0) -> BatchOutcome:
        """Run ``batch`` to completion and return its outcome."""
        # The mitigator tracks the batch's active tasks incrementally: tasks
        # enter its index on dispatch and leave on consensus, with the
        # platform's assignment observers keeping per-task counts and
        # per-worker involvement exact (maintenance terminates assignments
        # from inside replace_worker, a path this loop never touches).
        # Backends predating the observer hooks can't feed the index, so
        # they keep the brute-force scan path instead of crashing.
        index = None
        gate = None
        if hasattr(self.platform, "add_assignment_observer"):
            index = self.mitigator.begin_batch(batch)
            if self.use_dispatch_gate:
                # The gate needs the same exact lifecycle stream the index
                # does (platform-internal terminations included), so it is
                # only safe on observer-capable backends.
                gate = DispatchGate()
                self.platform.add_assignment_observer(gate)
        if index is not None:
            self.platform.add_assignment_observer(index)
        self._gate = gate
        try:
            return self._run_batch_inner(batch, batch_index)
        finally:
            self._gate = None
            if gate is not None:
                self.platform.remove_assignment_observer(gate)
            if index is not None:
                self.platform.remove_assignment_observer(index)
            self.mitigator.end_batch()

    def _run_batch_inner(self, batch: Batch, batch_index: int) -> BatchOutcome:
        platform = self.platform
        start_terminated = platform.counters.assignments_terminated
        start_started = platform.counters.assignments_started
        start_replaced = platform.counters.workers_replaced

        batch.dispatched_at = platform.now
        outcome = BatchOutcome(
            batch=batch,
            batch_index=batch_index,
            dispatched_at=platform.now,
            completed_at=platform.now,
        )
        completed_durations: list[float] = []
        #: Memoized per-task consensus: each task's votes are aggregated
        #: exactly once, at the moment it completes (answers are immutable
        #: afterwards), instead of re-running the vote over every task's
        #: answer list at the end of the batch.
        consensus_by_task: dict[int, dict[int, int]] = {}

        self._dispatch_available_workers(batch)
        # Tracked incrementally: `batch.is_complete` scans every task, and
        # this loop runs once per simulation event.
        tasks_remaining = sum(1 for task in batch.tasks if not task.is_complete)
        guard = 0
        max_events = 200_000
        while tasks_remaining > 0:
            guard += 1
            if guard > max_events:
                raise RuntimeError(
                    "batch did not complete within the event budget; "
                    "this indicates a scheduling deadlock"
                )
            if not platform.queue:
                made_progress = self._recover_starvation(batch)
                if not made_progress:
                    raise RuntimeError(
                        f"batch {batch_index} stalled: "
                        f"{len(batch.incomplete_tasks)} tasks incomplete, no events "
                        f"pending, and no worker can be assigned"
                    )
                continue
            event = platform.queue.pop()
            if event.kind != EventKind.ASSIGNMENT_FINISHED:
                continue
            assignment = event.payload
            if not assignment.is_active:
                continue
            task = platform.task_for_assignment(assignment)
            labels = platform.complete_assignment(assignment)
            completed_durations.append(assignment.duration)
            was_complete = task.is_complete
            if not was_complete:
                task.record_answer(assignment.worker_id, labels, platform.now)
            if task.is_complete:
                if not was_complete:
                    tasks_remaining -= 1
                    self.mitigator.note_task_complete(task)
                    if self._gate is not None:
                        self._gate.task_completed(task)
                self._terminate_losing_assignments(task, assignment.duration)
                outcome.completion_times.append((platform.now, task.num_records))
                consensus_by_task[task.task_id] = self._aggregate_task_labels(task)
            if self.maintainer is not None and self.maintain_during_batch:
                self.maintainer.maintain(platform, batch_index=batch_index)
            if self.pool_target_size is not None:
                added = platform.refill_pool(self.pool_target_size)
                if self._gate is not None:
                    self._gate.pool_refilled(added)
            self._dispatch_available_workers(batch)

        batch.completed_at = platform.now
        outcome.completed_at = platform.now

        if self.maintainer is not None and not self.maintain_during_batch:
            self.maintainer.maintain(platform, batch_index=batch_index)
            if self.pool_target_size is not None:
                platform.refill_pool(self.pool_target_size)

        # Merge the memoized per-task votes in batch order, matching the
        # insertion order the full end-of-batch rescan used to produce (the
        # learner consumes this dict in insertion order).
        labels: dict[int, int] = {}
        for task in batch.tasks:
            if not task.answers:
                continue
            cached = consensus_by_task.get(task.task_id)
            if cached is None:
                cached = self._aggregate_task_labels(task)
            labels.update(cached)
        outcome.labels = labels
        outcome.task_latencies = batch.task_latencies()
        outcome.assignment_records = self._assignment_records(batch, batch_index)
        outcome.assignments_started = (
            platform.counters.assignments_started - start_started
        )
        outcome.assignments_terminated = (
            platform.counters.assignments_terminated - start_terminated
        )
        # One source of truth: the platform counter, which every replacement
        # path increments exactly once when a replacement is actually seated
        # — maintainer evictions via replace_worker, and abandonment- or
        # deferred-eviction-driven seats via refill_pool.  (This used to
        # accumulate maintainer events *and* max() with the counter delta,
        # which both missed refill seats and counted evictions that never
        # found a replacement.)
        outcome.workers_replaced = (
            platform.counters.workers_replaced - start_replaced
        )
        if completed_durations:
            outcome.mean_pool_latency = float(
                sum(completed_durations) / len(completed_durations)
            )
        return outcome

    # -- internals ---------------------------------------------------------------

    def _dispatch_available_workers(self, batch: Batch) -> None:
        """Give every available worker a task, per the mitigation policy.

        With the :class:`DispatchGate` active, the probe loop runs only when
        something is provably placeable: a closed gate skips the sweep
        outright, an armed gate first checks ``placeable_count`` (O(1) on
        the indexed path) and closes without probing when it is zero, and —
        for batches without quality control, where a probe's outcome is
        worker-independent — the first ``None`` probe closes the gate and
        ends the sweep, because every remaining probe must also return
        ``None``.  Skipped probes never touched the RNG, so the gated and
        ungated runs are bit-identical in labels and cost counters.
        """
        platform = self.platform
        counters = platform.counters
        mitigator = self.mitigator
        gate = self._gate
        quality_controlled = batch.quality_controlled
        while True:
            available = platform.pool.available_workers()
            if not available:
                return
            if gate is not None:
                if not gate.armed:
                    return
                if mitigator.placeable_count(batch) == 0:
                    gate.close()
                    return
            assigned_any = False
            for slot in available:
                counters.probes_attempted += 1
                task = mitigator.pick_task(
                    batch, slot.worker_id, platform.pool, platform.now
                )
                if task is None:
                    counters.probes_futile += 1
                    if gate is not None and not quality_controlled:
                        # Worker-independent regime: this probe's failure
                        # proves the rest of the sweep futile.  (Under
                        # quality control the per-worker involvement filter
                        # means another worker may still be servable.)
                        gate.close()
                        break
                    continue
                platform.start_assignment(task, slot.worker_id)
                assigned_any = True
            if not assigned_any:
                return

    def _terminate_losing_assignments(self, task: Task, winner_duration: float) -> None:
        """Cancel the remaining active replicas of a just-completed task."""
        for other in list(task.active_assignments):
            self.platform.terminate_assignment(
                other, terminator_latency=winner_duration
            )

    def _recover_starvation(self, batch: Batch) -> bool:
        """Try to un-stall a batch with no pending events.

        This happens when the pool shrank (abandonment, eviction without a
        ready replacement) and the remaining incomplete tasks cannot be given
        to any current worker.  Refill the pool and retry dispatch; if no
        replacement is ready yet but recruits are in flight, wait (advance
        the clock) until the earliest one arrives.  Returns whether any
        assignment was started.
        """
        platform = self.platform
        if self._gate is not None:
            # Cold path: force a full probe sweep so the stall diagnosis
            # below never blames a closed gate for an undispatchable batch.
            self._gate.rearm()
        if self.pool_target_size is not None:
            platform.refill_pool(self.pool_target_size)
        before = platform.counters.assignments_started
        self._dispatch_available_workers(batch)
        if platform.counters.assignments_started > before:
            return True

        # Nothing could be dispatched with the current pool: wait for the
        # background reserve if it has recruits on the way.
        next_ready = platform.reserve.next_ready_time()
        if next_ready is None:
            return False
        platform.queue.advance_to(max(platform.now, next_ready))
        if self.pool_target_size is not None:
            added = platform.refill_pool(self.pool_target_size)
        else:
            # No target: grow past the current size to break the stall.
            # That seat replaces nobody, so it must not count as one.
            added = platform.refill_pool(
                len(platform.pool) + 1, as_replacements=False
            )
        if self._gate is not None:
            self._gate.pool_refilled(added)
        self._dispatch_available_workers(batch)
        return platform.counters.assignments_started > before

    @staticmethod
    def _aggregate_task_labels(task: Task) -> dict[int, int]:
        """Record id -> consensus label over one task's completed answers.

        Called once per task, when it completes (answers cannot change after
        completion), and memoized by :meth:`run_batch`.
        """
        labels: dict[int, int] = {}
        if not task.answers:
            return labels
        if len(task.answers) == 1:
            # Single answer (quality control off, the default): the vote is
            # the answer; skip the Counter machinery entirely.
            _, answer_labels, _ = task.answers[0]
            for record_id, label in zip(task.record_ids, answer_labels, strict=True):
                labels[record_id] = int(label)
            return labels
        per_record_answers: list[list[int]] = [[] for _ in task.record_ids]
        for _, answer_labels, _ in task.answers:
            for position, label in enumerate(answer_labels):
                per_record_answers[position].append(label)
        for record_id, answers in zip(task.record_ids, per_record_answers, strict=True):
            labels[record_id] = majority_vote(answers, tie_break="first")
        return labels

    def _assignment_records(
        self, batch: Batch, batch_index: int
    ) -> list[AssignmentRecord]:
        records = []
        for task in batch.tasks:
            for assignment in task.assignments:
                ended = (
                    assignment.completed_at
                    if assignment.completed_at is not None
                    else assignment.terminated_at
                )
                if ended is None:
                    continue
                records.append(
                    AssignmentRecord(
                        batch_index=batch_index,
                        task_id=task.task_id,
                        worker_id=assignment.worker_id,
                        started_at=assignment.started_at,
                        ended_at=ended,
                        completed=assignment.completed_at is not None,
                    )
                )
        return records
