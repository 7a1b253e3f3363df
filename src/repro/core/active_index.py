"""Incremental active-task index for the straggler-mitigation dispatch path.

:meth:`StragglerMitigator.pick_task` used to rebuild its candidate list on
every dispatch by scanning the batch's incomplete tasks and, per task, the
task's assignment and answer lists.  That scan is O(incomplete tasks) per
idle worker per event, which dominates the simulator profile once pools grow
to hundreds of workers (the candidate scan visited millions of tasks on the
1000-worker ``scale`` tier).

:class:`ActiveTaskIndex` replaces the scan with state that is maintained
*incrementally* as the batch runs:

* tasks enter the index when they are first dispatched (UNASSIGNED ->
  ACTIVE) and leave when consensus completes them, mirrored by a Fenwick
  tree over batch positions so the k-th live task can be selected in
  O(log n) without materialising the candidate list;
* per-task active-assignment counts, so starvation / under-provisioning /
  duplicate-cap checks are O(1) instead of scanning ``task.assignments``;
* when a duplicate cap (``max_extra_assignments``) is configured on a batch
  without quality control, a second Fenwick layer over per-task *duplicable*
  status (active assignments − outstanding votes < cap), so capped RANDOM
  routing keeps the one-draw O(log n) order-statistic selection instead of
  rebuilding a filtered candidate list per dispatch;
* per-worker involvement sets (maintained only for quality-controlled
  batches, where a worker's completed answer does not complete the task),
  so the "worker already involved" filter is a set lookup;
* a lazy min-heap of starved batch positions, so "first starved task in
  batch order" is O(1) amortised.

The index learns about assignment lifecycle through the crowd backend's
assignment-observer hooks (:meth:`assignment_started` /
:meth:`assignment_completed` / :meth:`assignment_terminated`), which the
LifeGuard registers for the duration of a batch.  Routing this through the
platform rather than the LifeGuard matters: pool maintenance terminates
assignments from inside ``replace_worker``, a path the LifeGuard never sees.
The simulated platform fires these callbacks from its assignment
transitions, in the order the transitions happen.

Equivalence contract: for every sequence of callbacks produced by a real
batch run, the index's view (live active tasks in batch order, per-task
active counts, per-worker involvement) is identical to what the brute-force
scan would compute from the task objects — so the mitigator draws the same
random index over the same candidate count and every seed reproduces
bit-identical labels and cost counters.  ``tests/test_mitigator_equivalence``
holds this property over seeds × pool sizes × batch configurations, and
``tests/test_state_equivalence`` holds the observer-invisibility of the
platform's ledger swap over the same kind of sweep.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, ClassVar, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..crowd.tasks import Assignment, Batch, Task


class _FenwickTree:
    """Binary indexed tree over batch positions with 0/1 membership.

    Supports O(log n) point update, prefix sum, and k-th-member selection —
    the order statistic the RANDOM routing policy needs to pick the k-th
    live active task in batch order without building a list.
    """

    __slots__ = ("_tree", "_size")

    def __init__(self, size: int) -> None:
        self._size = size
        self._tree = [0] * (size + 1)

    def add(self, position: int, delta: int) -> None:
        index = position + 1
        tree = self._tree
        size = self._size
        while index <= size:
            tree[index] += delta
            index += index & (-index)

    def kth(self, k: int) -> int:
        """Position of the k-th member (0-based k), by ascending position."""
        tree = self._tree
        position = 0
        remaining = k + 1
        bit = 1 << (self._size.bit_length())
        while bit:
            candidate = position + bit
            if candidate <= self._size and tree[candidate] < remaining:
                position = candidate
                remaining -= tree[candidate]
            bit >>= 1
        return position  # 1-based internal index - 1 == 0-based position


class ActiveTaskIndex:
    """Live view of one batch's active tasks, maintained by callbacks.

    Created by :meth:`StragglerMitigator.begin_batch` and fed by the crowd
    backend's assignment observers plus the LifeGuard's task-completion
    notification.  All queries the mitigator's dispatch path needs are O(1)
    or O(log n).
    """

    #: Oracle-parity registry, enforced by ``repro lint`` (REPRO-P501): the
    #: selection reads backing the mitigator's indexed fast paths, mapped to
    #: the brute-force scan that serves as their committed test oracle.
    #: Cross-class twins are resolved over the whole linted tree.
    _SCAN_TWINS: ClassVar[dict[str, str]] = {
        "placeable_count": "StragglerMitigator.placeable_count_scan",
        "kth_live_task": "StragglerMitigator.pick_task_scan",
        "kth_duplicable_task": "StragglerMitigator.pick_task_scan",
        "first_starved": "StragglerMitigator.pick_task_scan",
    }

    def __init__(
        self, batch: "Batch", max_extra_assignments: Optional[int] = None
    ) -> None:
        self.batch = batch
        tasks = batch.tasks
        self._position = {task.task_id: i for i, task in enumerate(tasks)}
        self._fenwick = _FenwickTree(len(tasks))
        #: Number of tasks currently ACTIVE (dispatched, not complete).
        self._live = 0
        #: task_id -> number of ACTIVE-status assignments.  Membership in
        #: this dict means the task has been dispatched at least once.
        self._active_counts: dict[int, int] = {}
        #: Batch-ordered list of tasks that entered the index; completed
        #: tasks are skipped on iteration and compacted lazily.
        self._entries: list["Task"] = []
        self._dead_entries = 0
        #: Lazy min-heap of batch positions that dropped to zero active
        #: assignments while still incomplete (starved tasks).  Entries are
        #: validated on read, so revived/completed tasks cost nothing.
        self._starved_heap: list[int] = []
        #: Tasks whose completion has already been applied to the Fenwick
        #: tree, so a duplicate notification cannot double-remove.
        self._completed_ids: set[int] = set()
        #: Quality control decouples "answered" from "complete": only then
        #: can an *available* worker still be involved in an active task, so
        #: only then is the involvement filter non-vacuous and worth the
        #: bookkeeping.  (Read off the batch's cached flag so the index and
        #: the scan-path placeability gate branch on the identical value.)
        self.quality_controlled = batch.quality_controlled
        self._involvement: dict[int, set[int]] = {}
        #: Duplicate cap this index maintains its duplicable layer for
        #: (``None`` = uncapped, no second Fenwick).
        self.max_extra_assignments = max_extra_assignments
        #: Second Fenwick layer: 0/1 per batch position, set when the task is
        #: live and mitigation may still add a duplicate (active assignments
        #: − outstanding votes < cap).  Only maintained for capped batches
        #: without quality control — exactly the regime where the dispatch
        #: candidate list is the full live set and the RANDOM draw can be
        #: served as an order statistic.  (Quality-controlled batches need
        #: the per-worker involvement filter and take the medium path.)
        self._track_duplicable = (
            max_extra_assignments is not None and not self.quality_controlled
        )
        self._dup_fenwick = (
            _FenwickTree(len(tasks)) if self._track_duplicable else None
        )
        self._dup_count = 0
        self._dup_positions: set[int] = set()

    # -- queries ---------------------------------------------------------------

    @property
    def live_count(self) -> int:
        """Number of tasks currently in ACTIVE state (complete tasks left)."""
        return self._live

    def active_assignments_of(self, task: "Task") -> int:
        """O(1) equivalent of ``task.num_active_assignments``."""
        return self._active_counts.get(task.task_id, 0)

    def kth_live_task(self, k: int) -> "Task":
        """The k-th live active task in batch order (0-based), O(log n)."""
        if not 0 <= k < self._live:
            raise IndexError(f"k={k} out of range for {self._live} live tasks")
        return self.batch.tasks[self._fenwick.kth(k)]

    def first_starved(self) -> Optional["Task"]:
        """First task in batch order that is ACTIVE with no active assignment."""
        heap = self._starved_heap
        tasks = self.batch.tasks
        while heap:
            task = tasks[heap[0]]
            if (
                not task.is_complete
                and self._active_counts.get(task.task_id, 0) == 0
            ):
                return task
            heapq.heappop(heap)
        return None

    def iter_live(self) -> Iterator["Task"]:
        """Live active tasks in batch order, compacting dead entries lazily."""
        entries = self._entries
        if self._dead_entries * 2 > len(entries):
            entries = [task for task in entries if not task.is_complete]
            self._entries = entries
            self._dead_entries = 0
        for task in entries:
            if not task.is_complete:
                yield task

    @property
    def duplicable_count(self) -> int:
        """Number of live tasks mitigation may still duplicate (capped mode).

        Only meaningful when the index was built with a duplicate cap on a
        batch without quality control.  Starved tasks count as duplicable
        (active = 0 < anything), but dispatch returns the first starved task
        before ever drawing over this count, so the draw population is
        exactly the brute-force scan's filtered candidate list.
        """
        return self._dup_count

    def kth_duplicable_task(self, k: int) -> "Task":
        """The k-th duplicable live task in batch order (0-based), O(log n)."""
        if self._dup_fenwick is None:
            raise RuntimeError("index was not built with a duplicate cap")
        if not 0 <= k < self._dup_count:
            raise IndexError(
                f"k={k} out of range for {self._dup_count} duplicable tasks"
            )
        return self.batch.tasks[self._dup_fenwick.kth(k)]

    def placeable_count(
        self,
        enabled: bool = True,
        max_extra_assignments: Optional[int] = None,
    ) -> int:
        """O(1) summary of the tasks a dispatch probe could still place.

        Sums the placement opportunities the mitigator's priority order can
        serve — an unassigned task, a starved task, and (when mitigation is
        ``enabled``) the duplicable live set (all live tasks when uncapped,
        the duplicable Fenwick layer's count under a cap).  ``enabled`` and
        ``max_extra_assignments`` are the *mitigator's* current settings;
        the routing policy is irrelevant because every policy routes over
        the same candidate list — only the choice within it differs.

        Zero is exact and worker-independent: when this returns 0, a probe
        for *any* available worker provably returns ``None`` without
        consuming the RNG stream, which is what lets the LifeGuard's
        event-level gate skip the probe loop wholesale.  Positive values are
        an upper bound (per-worker involvement under quality control, and
        starved tasks also being duplicable, can make the true number of
        servable probes smaller), so callers must only trust the zero test.
        """
        count = 1 if self.batch.first_unassigned_task() is not None else 0
        live = self._live
        if live == 0:
            return count
        if self.quality_controlled:
            # Involvement makes placeability worker-dependent; any live task
            # may still be starved, under-provisioned, or duplicable for
            # somebody, so only the empty live set is provably futile.
            return count + live
        if self.first_starved() is not None:
            count += 1
        if not enabled:
            return count
        if max_extra_assignments is None:
            return count + live
        if max_extra_assignments == self.max_extra_assignments:
            return count + self._dup_count
        # The cap changed after the index was built (no maintained Fenwick
        # layer for it): stay conservative rather than ever claiming zero.
        return count + live

    def involved_tasks(self, worker_id: int) -> frozenset[int]:
        """Task ids the worker holds an active assignment on or has answered.

        Only meaningful for quality-controlled batches; without redundancy an
        available worker can never be involved in a still-active task (their
        answer completes it), so the empty set is returned unconditionally.
        """
        if not self.quality_controlled:
            return frozenset()
        involved = self._involvement.get(worker_id)
        return frozenset(involved) if involved else frozenset()

    # -- platform assignment observers ----------------------------------------

    def assignment_started(self, task: "Task", assignment: "Assignment") -> None:
        """A worker was dispatched onto ``task`` (enters the index if new)."""
        task_id = task.task_id
        count = self._active_counts.get(task_id)
        if count is None:
            position = self._position.get(task_id)
            if position is None:
                return  # task from another batch (defensive; should not happen)
            self._active_counts[task_id] = 1
            self._fenwick.add(position, 1)
            self._live += 1
            self._entries.append(task)
        else:
            self._active_counts[task_id] = count + 1
        if self.quality_controlled:
            self._involvement.setdefault(assignment.worker_id, set()).add(task_id)
        if self._track_duplicable:
            self._update_duplicable(task_id)

    def assignment_completed(self, task: "Task", assignment: "Assignment") -> None:
        """An assignment finished; the worker's answer keeps them involved."""
        if task.task_id in self._active_counts:
            self._active_counts[task.task_id] -= 1
            if self._track_duplicable:
                self._update_duplicable(task.task_id)
        # No starved push: completion is immediately followed by the
        # LifeGuard recording the answer; if the task stays incomplete
        # (quality control) with zero active work, the next termination or
        # the brute equivalence below marks it.  See _note_possibly_starved.
        self._note_possibly_starved(task)

    def assignment_terminated(self, task: "Task", assignment: "Assignment") -> None:
        """An assignment was pre-empted (mitigation or worker eviction)."""
        task_id = task.task_id
        if task_id in self._active_counts:
            self._active_counts[task_id] -= 1
            if self._track_duplicable:
                self._update_duplicable(task_id)
        if self.quality_controlled:
            involved = self._involvement.get(assignment.worker_id)
            if involved and task_id in involved:
                # A terminated worker may be re-routed to the task later —
                # unless they already answered it.
                if not self._worker_answered(task, assignment.worker_id):
                    involved.discard(task_id)
        self._note_possibly_starved(task)

    # -- LifeGuard notifications ------------------------------------------------

    def task_completed(self, task: "Task") -> None:
        """Consensus reached: the task leaves the live set permanently."""
        task_id = task.task_id
        if task_id not in self._active_counts or task_id in self._completed_ids:
            return
        self._completed_ids.add(task_id)
        position = self._position[task_id]
        self._fenwick.add(position, -1)
        self._live -= 1
        self._dead_entries += 1
        if self._track_duplicable:
            self._update_duplicable(task_id)

    # -- internals ---------------------------------------------------------------

    def _update_duplicable(self, task_id: int) -> None:
        """Re-derive the duplicable bit for one task and flip the Fenwick.

        Without quality control a live task's outstanding votes are exactly
        one, so "duplicable" reduces to ``active_count <= cap``.  The bit is
        maintained idempotently from current state, so any sequence of
        callbacks (including transient mid-event states) converges to the
        scan's view by the time dispatch runs.
        """
        live = task_id in self._active_counts and task_id not in self._completed_ids
        desired = live and self._active_counts[task_id] <= self.max_extra_assignments
        position = self._position[task_id]
        if desired and position not in self._dup_positions:
            self._dup_positions.add(position)
            self._dup_fenwick.add(position, 1)
            self._dup_count += 1
        elif not desired and position in self._dup_positions:
            self._dup_positions.discard(position)
            self._dup_fenwick.add(position, -1)
            self._dup_count -= 1

    def _note_possibly_starved(self, task: "Task") -> None:
        if (
            not task.is_complete
            and self._active_counts.get(task.task_id, 0) == 0
        ):
            heapq.heappush(self._starved_heap, self._position[task.task_id])

    @staticmethod
    def _worker_answered(task: "Task", worker_id: int) -> bool:
        for answered_by, _, _ in task.answers:
            if answered_by == worker_id:
                return True
        return False
