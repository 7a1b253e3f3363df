"""Unit tests for the simulated crowd platform."""

import functools

import pytest

import repro.crowd.platform
from repro.crowd.events import EventKind
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.crowd.tasks import Task
from repro.crowd.worker import WorkerDrawBlock


def make_task(task_id=0, num_records=1, votes_required=1):
    return Task(
        task_id=task_id,
        record_ids=list(range(num_records)),
        true_labels=[1] * num_records,
        votes_required=votes_required,
    )


class TestPoolInitialization:
    def test_pool_size(self, small_population):
        platform = SimulatedCrowdPlatform(small_population, seed=0)
        platform.initialize_pool(5)
        assert len(platform.pool) == 5
        assert platform.counters.workers_recruited == 5

    def test_recruitment_does_not_advance_clock(self, small_population):
        platform = SimulatedCrowdPlatform(small_population, seed=0)
        platform.initialize_pool(3)
        assert platform.now == 0.0

    def test_zero_pool_rejected(self, small_population):
        platform = SimulatedCrowdPlatform(small_population, seed=0)
        with pytest.raises(ValueError):
            platform.initialize_pool(0)

    def test_invalid_abandonment_rate_rejected(self, small_population):
        with pytest.raises(ValueError):
            SimulatedCrowdPlatform(small_population, abandonment_rate=1.5)


class TestAssignments:
    def test_start_assignment_schedules_event(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        assert assignment.duration > 0
        assert len(platform.queue) == 1
        assert not platform.pool.slot(worker_id).is_available

    def test_start_assignment_requires_available_worker(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        platform.start_assignment(task, worker_id)
        with pytest.raises(ValueError):
            platform.start_assignment(make_task(1), worker_id)

    def test_complete_assignment_produces_labels(self, platform):
        task = make_task(num_records=3)
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        event = platform.queue.pop()
        assert event.kind == EventKind.ASSIGNMENT_FINISHED
        labels = platform.complete_assignment(assignment)
        assert len(labels) == 3
        assert platform.pool.slot(worker_id).is_available
        assert platform.counters.assignments_completed == 1
        assert platform.counters.records_labeled_paid == 3

    def test_complete_assignment_records_observation(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        platform.queue.pop()
        platform.complete_assignment(assignment)
        obs = platform.pool.observations(worker_id)
        assert obs.completed_count == 1
        assert obs.completed_latencies[0] == pytest.approx(assignment.duration)

    def test_terminate_assignment_cancels_event_and_pays(self, platform):
        task = make_task(num_records=2)
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        platform.terminate_assignment(assignment, terminator_latency=1.5)
        assert platform.counters.assignments_terminated == 1
        assert platform.counters.records_labeled_paid == 2
        assert len(platform.queue) == 0
        obs = platform.pool.observations(worker_id)
        assert obs.terminated_count == 1
        assert obs.terminator_latencies == [1.5]

    def test_cannot_complete_terminated_assignment(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        platform.terminate_assignment(assignment)
        with pytest.raises(ValueError):
            platform.complete_assignment(assignment)

    def test_labels_mostly_correct_for_accurate_workers(self, platform):
        correct = 0
        total = 0
        for index in range(200):
            task = make_task(task_id=index)
            worker_id = platform.pool.available_workers()[0].worker_id
            assignment = platform.start_assignment(task, worker_id)
            platform.queue.pop()
            labels = platform.complete_assignment(assignment)
            correct += sum(1 for l in labels if l == 1)
            total += len(labels)
        assert correct / total > 0.8

    def test_task_for_assignment(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        assert platform.task_for_assignment(assignment) is task

    def test_active_assignment_for_worker(self, platform):
        task = make_task()
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(task, worker_id)
        assert platform.active_assignment_for_worker(worker_id) is assignment


class TestAbandonment:
    def test_workers_leave_with_high_abandonment(self, small_population):
        platform = SimulatedCrowdPlatform(
            small_population, seed=0, abandonment_rate=0.9
        )
        platform.initialize_pool(5)
        departures = 0
        for index in range(5):
            worker_ids = [s.worker_id for s in platform.pool.available_workers()]
            if not worker_ids:
                break
            task = make_task(task_id=index)
            assignment = platform.start_assignment(task, worker_ids[0])
            platform.queue.pop()
            platform.complete_assignment(assignment)
            departures = platform.counters.workers_abandoned
        assert departures >= 1


class TestReplacement:
    def test_replace_worker_without_reserve_shrinks_pool(self, platform):
        worker_id = platform.pool.worker_ids[0]
        replacement = platform.replace_worker(worker_id)
        assert replacement is None
        assert len(platform.pool) == 4

    def test_replace_worker_with_reserve(self, platform):
        platform.configure_reserve(2)
        platform.queue.advance_to(1e9)
        platform.reserve.tick(platform.now)
        worker_id = platform.pool.worker_ids[0]
        replacement = platform.replace_worker(worker_id)
        assert replacement is not None
        assert len(platform.pool) == 5
        assert worker_id not in platform.pool
        assert platform.counters.workers_replaced == 1

    def test_refill_pool_counts_seats_as_replacements(self, platform):
        platform.configure_reserve(2)
        platform.queue.advance_to(1e9)
        platform.reserve.tick(platform.now)
        lost = platform.pool.worker_ids[0]
        platform.pool.remove_worker(lost, platform.now)
        added = platform.refill_pool(5)
        assert added == 1
        assert platform.counters.workers_replaced == 1

    def test_refill_pool_growth_does_not_count_as_replacement(self, platform):
        """Seats that grow the pool past its prior size replace nobody."""
        platform.configure_reserve(2)
        platform.queue.advance_to(1e9)
        platform.reserve.tick(platform.now)
        added = platform.refill_pool(6, as_replacements=False)
        assert added == 1
        assert len(platform.pool) == 6
        assert platform.counters.workers_replaced == 0

    def test_replace_active_worker_terminates_assignment(self, platform):
        worker_id = platform.pool.worker_ids[0]
        task = make_task()
        platform.start_assignment(task, worker_id)
        platform.replace_worker(worker_id)
        assert platform.counters.assignments_terminated == 1

    def test_replace_unknown_worker_rejected(self, platform):
        with pytest.raises(KeyError):
            platform.replace_worker(424242)

    def test_same_timestamp_replacement_after_completion(self, platform):
        """Complete then replace at one timestamp: the completed assignment
        must not be re-terminated during the eviction."""
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(make_task(), worker_id)
        platform.queue.pop()
        platform.complete_assignment(assignment)
        platform.replace_worker(worker_id)
        assert platform.counters.assignments_terminated == 0
        assert worker_id not in platform.pool

    def test_replacement_with_stale_assignment_watermark(self, platform):
        """A stale ``current_assignment_id`` (caller-driven slot churn) must
        resolve through the ledger's activity check, not terminate."""
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(make_task(), worker_id)
        platform.queue.pop()
        platform.complete_assignment(assignment)
        platform.pool.slot(worker_id).current_assignment_id = (
            assignment.assignment_id
        )
        platform.replace_worker(worker_id)
        assert platform.counters.assignments_terminated == 0

    def test_never_assigned_slot_replacement(self, platform):
        """Eviction of a worker who never drew an assignment is clean."""
        worker_id = platform.pool.worker_ids[0]
        platform.replace_worker(worker_id)
        assert platform.counters.assignments_terminated == 0
        assert platform.counters.assignments_started == 0

    def test_refill_pool_uses_reserve(self, platform):
        platform.configure_reserve(3)
        platform.queue.advance_to(1e9)
        platform.pool.remove_worker(platform.pool.worker_ids[0], now=platform.now)
        added = platform.refill_pool(target_size=5)
        assert added == 1
        assert len(platform.pool) == 5


class TestSettlement:
    def test_settle_accrues_waiting(self, platform):
        platform.queue.advance_to(100.0)
        platform.settle()
        assert platform.pool.total_waiting_seconds() == pytest.approx(500.0)


class TestPlatformDrawBlocks:
    """Per-worker draw blocks are a prefetch window, not a unit of randomness."""

    def _run_trace(self, population_factory, monkeypatch, block_size=None):
        # Populations are stateful (sampling advances their RNG and id
        # counter), so each replay gets a freshly built one.
        with monkeypatch.context() as patch:
            if block_size is not None:
                patch.setattr(
                    repro.crowd.platform,
                    "WorkerDrawBlock",
                    functools.partial(WorkerDrawBlock, block_size=block_size),
                )
            platform = SimulatedCrowdPlatform(population_factory(), seed=3)
            platform.initialize_pool(5)
            trace = []
            for index in range(12):
                available = platform.pool.available_workers()
                if not available:
                    platform.queue.pop()
                    continue
                assignment = platform.start_assignment(
                    make_task(task_id=index, num_records=2), available[0].worker_id
                )
                if index % 3 == 2:
                    platform.terminate_assignment(assignment)
                    trace.append(("terminated", assignment.duration))
                else:
                    platform.queue.pop()
                    labels = platform.complete_assignment(assignment)
                    trace.append(("completed", assignment.duration, tuple(labels)))
        trace.append(("now", platform.now))
        trace.append(("counters", str(platform.counters)))
        return trace

    def test_block_size_is_not_observable(self, small_population_factory, monkeypatch):
        factory = small_population_factory
        reference = self._run_trace(factory, monkeypatch)
        assert self._run_trace(factory, monkeypatch, block_size=1) == reference
        assert self._run_trace(factory, monkeypatch, block_size=1000) == reference

    def test_departed_worker_block_is_dropped(self, small_population):
        platform = SimulatedCrowdPlatform(small_population, seed=0)
        platform.initialize_pool(3)
        worker_id = platform.pool.worker_ids[0]
        assignment = platform.start_assignment(make_task(), worker_id)
        platform.queue.pop()
        platform.complete_assignment(assignment)
        assert worker_id in platform._draw_blocks
        platform.replace_worker(worker_id)
        assert worker_id not in platform._draw_blocks
