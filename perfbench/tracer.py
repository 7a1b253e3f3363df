"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions and methods of every layer's
module (see :data:`LAYERS`) in place.  Each wrapped call is a span with a
name, a start, an end and the span that caused it; a layer's *self time* is
its spans' durations minus the part their child spans cover.

Spans are kept in memory per thread and written out at the end of the run.
Two compromises keep the traced run affordable, and the overhead they leave
is reported as ``tracing_overhead_share``:

* Layers on the simulator's hot path (``crowd.*``, ``core.lifeguard``,
  ``core.mitigator``, ``core.active_index``, ``core.maintainer``,
  ``core.termest``, ``core.quality``) are timed per call but kept as
  per-function aggregates (calls, total and self time), not as individual
  span records: they make up to millions of calls per run.
* ``crowd.tasks`` is counted, not timed: its public surface is mostly
  property reads far cheaper than a timing wrapper, so its time stays in its
  callers' self time.  Properties of the other layers are not wrapped, for
  the same reason.

Methods that block on another thread (``LabelingJob.result`` and friends)
are not wrapped: their spans would measure waiting, not work.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import GeneratorType
from typing import Any, Callable, Iterator, Optional


@dataclass(frozen=True)
class Layer:
    """One layer: its modules and how its calls are recorded."""

    name: str
    modules: tuple[str, ...]
    #: Keep an individual span record per call (coarse, rarely called layers).
    keep_spans: bool = False
    #: Count calls (properties included) without timing them.
    count_only: bool = False
    #: ``Class.method`` / function names left unwrapped.
    skip: frozenset[str] = frozenset()
    #: ``Class.method`` names counted (per call, or per yielded item for a
    #: generator) instead of timed.
    counted: frozenset[str] = frozenset()


LAYERS: tuple[Layer, ...] = (
    Layer(
        "service",
        ("repro.service.app",),
        keep_spans=True,
        skip=frozenset({"LabelingService.close"}),
        # The event stream blocks on the running job between frames.
        counted=frozenset({"LabelingService.events"}),
    ),
    Layer("api.wire", ("repro.api.wire",), keep_spans=True),
    Layer(
        "api.engine",
        ("repro.api.engine",),
        keep_spans=True,
        skip=frozenset(
            {
                "Engine.close",
                "Engine.run_many",
                "Engine.run_many_with_stats",
                "Engine.stream",
                "LabelingJob.result",
                "LabelingJob.stats",
                "LabelingJob.stream",
                "LabelingJob.wait",
            }
        ),
    ),
    Layer("core.batcher", ("repro.core.batcher",), keep_spans=True),
    Layer("core.lifeguard", ("repro.core.lifeguard",)),
    Layer("core.mitigator", ("repro.core.mitigator",)),
    Layer("core.active_index", ("repro.core.active_index",)),
    Layer("core.maintainer", ("repro.core.maintainer",)),
    Layer("core.termest", ("repro.core.termest",)),
    Layer("core.quality", ("repro.core.quality",)),
    Layer(
        "learning",
        (
            "repro.learning.retrainer",
            "repro.learning.learners",
            "repro.learning.samplers",
            "repro.learning.models",
        ),
        keep_spans=True,
    ),
    Layer("crowd.platform", ("repro.crowd.platform",)),
    Layer("crowd.worker", ("repro.crowd.worker",)),
    Layer("crowd.pool", ("repro.crowd.pool",)),
    Layer("crowd.tasks", ("repro.crowd.tasks",), count_only=True),
    Layer("crowd.events", ("repro.crowd.events",)),
)

#: Learning-layer methods that start a phase; calls below them inherit it.
PHASE_METHODS = {
    "retrain": "retrain",
    "propose_batch": "select",
    "next_batch": "select",
    "test_accuracy": "evaluate",
}

#: The per-layer metrics (reported with ``--trace 1``), name -> unit.  Every
#: workload reports every one; a layer a workload does not exercise reads 0.
#: Self times of layers that some workload leaves idle are given as shares of
#: the traced round's wall time, so that no time metric is constant.
PER_LAYER_UNITS: dict[str, str] = {
    "events.pops": "count",
    "events.schedules": "count",
    "events.pops_per_label": "count/label",
    "events.self_ms": "ms",
    "platform.start_assignment.calls": "count",
    "platform.complete_assignment.calls": "count",
    "platform.terminate_assignment.calls": "count",
    "platform.self_ms": "ms",
    "platform.useful_assignment_frac": "share",
    "worker.draws": "count",
    "worker.self_ms": "ms",
    "pool.available_workers.calls": "count",
    "pool.self_ms": "ms",
    "tasks.calls_per_label": "count/label",
    "active_index.observer_calls": "count",
    "active_index.self_ms": "ms",
    "mitigator.pick_task.calls": "count",
    "mitigator.placeable_count.calls": "count",
    "mitigator.self_ms": "ms",
    "lifeguard.run_batch.calls": "count",
    "lifeguard.self_ms": "ms",
    "lifeguard.probe_success_frac": "share",
    "batcher.batches": "count",
    "batcher.self_ms": "ms",
    "maintainer.maintain.calls": "count",
    "maintainer.replacements": "count",
    "maintainer.self_share": "share",
    "termest.calls": "count",
    "termest.self_share": "share",
    "quality.consensus.calls": "count",
    "quality.self_share": "share",
    "learning.retrains": "count",
    "learning.retrain.self_share": "share",
    "learning.select.self_share": "share",
    "engine.queue_wait_ms": "ms",
    "engine.build_run_ms": "ms",
    "engine.events_emitted": "count",
    "wire.spec_from_dict_ms": "ms",
    "wire.event_to_dict.calls": "count",
    "service.sse_frames_per_job": "count/job",
    "service.handler_share.submit": "share",
    "service.handler_share.labels_page": "share",
    "service.handler_share.get_job": "share",
    "service.handler_share.delete": "share",
    "service.transport_share": "share",
    "unattributed_share": "share",
    "tracing_overhead_share": "share",
}


class _ThreadState:
    __slots__ = ("stack", "agg", "counts", "spans", "roots", "thread")

    def __init__(self) -> None:
        #: Open frames: [child_ns, layer, phase, span_id, anchor_id].
        self.stack: list[list[Any]] = []
        #: (key, phase) -> [calls, total_ns, self_ns, entries]; an *entry*
        #: is a call from outside the callee's layer.
        self.agg: dict[tuple[str, Optional[str]], list[int]] = {}
        self.counts: dict[str, int] = {}
        #: Span records of keep_spans layers: (id, parent, key, start, end, thread).
        self.spans: list[tuple[Any, ...]] = []
        #: (start, end) of every outermost span, for the coverage figure.
        self.roots: list[tuple[int, int]] = []
        self.thread = threading.get_ident()


class Tracer:
    """Installs the layer wrappers and collects what they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[Any, str, Any]] = []
        self._submitted: dict[int, int] = {}
        self._queue_waits: list[int] = []
        self._jobs: list[Any] = []
        #: Wrapper bookkeeping a timed / counted child call adds to its
        #: parent's interval, charged to the child (see :meth:`calibrate`).
        self.timed_cost_ns = 0
        self.counted_cost_ns = 0

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _timed(self, fn: Callable[..., Any], key: str, layer: str, keep: bool) -> Callable[..., Any]:
        perf = time.perf_counter_ns
        state_of = self._state
        ids = self._ids
        own_phase = PHASE_METHODS.get(key.rsplit(".", 1)[-1]) if layer == "learning" else None
        steps = self._steps
        cost = self.timed_cost_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            parent = stack[-1] if stack else None
            if parent is None:
                phase, anchor = own_phase, None
            else:
                phase = own_phase or parent[2]
                anchor = parent[3] or parent[4]
            span_id = next(ids) if keep else None
            frame = [0, layer, phase, span_id, anchor]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                record = state.agg.get((key, phase))
                if record is None:
                    record = state.agg[(key, phase)] = [0, 0, 0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                if parent is None:
                    record[3] += 1
                    state.roots.append((start, end))
                else:
                    parent[0] += duration + cost
                    if parent[1] != layer:
                        record[3] += 1
                if keep:
                    state.spans.append((span_id, anchor, key, start, end, state.thread))
            if type(result) is GeneratorType:
                return steps(result, key + "[step]", layer, keep)
            return result

        return traced

    def _steps(self, inner: GeneratorType, key: str, layer: str, keep: bool) -> Iterator[Any]:
        """Time each step of a generator as a span of its own."""
        step = self._timed(lambda: next(inner), key, layer, keep)
        try:
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item
        finally:
            inner.close()

    def _counted(self, fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        state_of = self._state
        cost = self.counted_cost_ns

        def counted(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            counts = state.counts
            counts[key] = counts.get(key, 0) + 1
            if state.stack:
                state.stack[-1][0] += cost
            result = fn(*args, **kwargs)
            if type(result) is GeneratorType:
                return self._count_items(result, key + "[item]")
            return result

        return counted

    def _count_items(self, inner: GeneratorType, key: str) -> Iterator[Any]:
        try:
            for item in inner:
                counts = self._state().counts
                counts[key] = counts.get(key, 0) + 1
                yield item
        finally:
            inner.close()

    # -- installation --------------------------------------------------------

    def calibrate(self, calls: int = 20_000, trials: int = 7) -> None:
        """Measure what a wrapped child call adds to its parent's interval
        beyond the child's own span (argument passing, bookkeeping), so that
        self times charge it to the child instead of inflating the parent.
        The minimum over trials is used: an under- rather than an
        over-estimate."""
        probe = Tracer()

        def noop() -> None:
            return None

        def parent_self_ns(child: Callable[[], None]) -> int:
            def parent() -> None:
                for _ in range(calls):
                    child()

            timed_parent = probe._timed(parent, "calibration:parent", "calibration", False)
            best = None
            for _ in range(trials):
                probe._state().agg.clear()
                timed_parent()
                self_ns = probe._state().agg[("calibration:parent", None)][2]
                best = self_ns if best is None else min(best, self_ns)
            assert best is not None
            return best

        bare = parent_self_ns(noop)
        timed = parent_self_ns(probe._timed(noop, "calibration:child", "calibration.child", False))
        counted = parent_self_ns(probe._counted(noop, "calibration:count"))
        self.timed_cost_ns = max(0, (timed - bare) // calls)
        self.counted_cost_ns = max(0, (counted - bare) // calls)

    def install(self) -> None:
        """Wrap every layer's public functions and methods in place
        (calibrating the wrapper cost first)."""
        self.calibrate()
        for layer in LAYERS:
            for module_name in layer.modules:
                module = importlib.import_module(module_name)
                for name, obj in list(vars(module).items()):
                    if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
                        continue
                    if inspect.isclass(obj):
                        if issubclass(obj, Enum) or getattr(obj, "_is_protocol", False):
                            continue
                        for attr, raw in list(vars(obj).items()):
                            if not attr.startswith("_"):
                                self._wrap_member(layer, obj, attr, raw)
                    elif inspect.isfunction(obj) and name not in layer.skip:
                        self._patch_function(obj, self._wrapper(layer, name, obj))
        self._install_engine_hooks()

    def _wrapper(self, layer: Layer, qualname: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        key = f"{layer.name}:{qualname}"
        if layer.count_only or qualname in layer.counted:
            return self._counted(fn, key)
        return self._timed(fn, key, layer.name, layer.keep_spans)

    def _wrap_member(self, layer: Layer, owner: type, attr: str, raw: Any) -> None:
        qualname = f"{owner.__name__}.{attr}"
        if qualname in layer.skip:
            return
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(self._wrapper(layer, qualname, raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrapper(layer, qualname, raw.__func__))
        elif isinstance(raw, property):
            if not layer.count_only or raw.fget is None:
                return
            new = property(self._counted(raw.fget, f"{layer.name}:{qualname}"), raw.fset, raw.fdel, raw.__doc__)
        elif inspect.isfunction(raw):
            new = self._wrapper(layer, qualname, raw)
        else:
            return
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _patch_function(self, original: Any, replacement: Any) -> None:
        """Rebind ``original`` to ``replacement`` wherever a ``repro`` module
        imported it by name."""
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _install_engine_hooks(self) -> None:
        """Measure queue wait (``Engine.submit`` until ``build_run`` starts)
        and remember submitted jobs, for their emitted-event counts."""
        from repro.api import engine as engine_module

        traced_submit = engine_module.Engine.submit
        traced_build_run = engine_module.build_run
        submitted, waits, jobs = self._submitted, self._queue_waits, self._jobs
        lock = self._lock

        def submit(engine: Any, spec: Any, *args: Any, **kwargs: Any) -> Any:
            with lock:
                submitted[id(spec)] = time.perf_counter_ns()
            job = traced_submit(engine, spec, *args, **kwargs)
            with lock:
                jobs.append(job)
            return job

        def build_run(spec: Any) -> Any:
            started = time.perf_counter_ns()
            with lock:
                queued = submitted.pop(id(spec), None)
                if queued is not None:
                    waits.append(started - queued)
            return traced_build_run(spec)

        self._restore.append((engine_module.Engine, "submit", traced_submit))
        engine_module.Engine.submit = submit
        self._patch_function(traced_build_run, build_run)

    def uninstall(self) -> None:
        """Put every original back (in reverse order of wrapping)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> "TraceData":
        """Merge every thread's records (call once the traced work is done)."""
        data = TraceData()
        with self._lock:
            states = list(self._states)
            data.queue_waits_ns = list(self._queue_waits)
            jobs = list(self._jobs)
        for state in states:
            for (key, phase), record in state.agg.items():
                merged = data.agg.setdefault(f"{key}|{phase or ''}", [0, 0, 0, 0])
                for index, value in enumerate(record):
                    merged[index] += value
            for key, value in state.counts.items():
                data.counts[key] = data.counts.get(key, 0) + value
            data.spans.extend(state.spans)
            data.roots.extend(state.roots)
        data.events_emitted = sum(len(job.events()) for job in jobs)
        data.jobs = len(jobs)
        data.wrapper_cost_ns = {"timed": self.timed_cost_ns, "counted": self.counted_cost_ns}
        return data


@dataclass
class TraceData:
    """Merged trace of one run, JSON-serialisable (see :meth:`save`)."""

    #: "layer:Qual.name|phase" -> [calls, total_ns, self_ns, entries]
    agg: dict[str, list[int]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    spans: list[Any] = field(default_factory=list)
    roots: list[Any] = field(default_factory=list)
    queue_waits_ns: list[int] = field(default_factory=list)
    events_emitted: int = 0
    jobs: int = 0
    #: Calibrated per-call wrapper cost charged to child calls.
    wrapper_cost_ns: dict[str, int] = field(default_factory=dict)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(vars(self)))

    @classmethod
    def load(cls, path: Path) -> "TraceData":
        return cls(**json.loads(path.read_text()))

    def _records(self, layer: str, qualname: Optional[str] = None) -> Iterator[tuple[str, str, list[int]]]:
        for full, record in self.agg.items():
            key, phase = full.split("|", 1)
            key_layer, key_name = key.split(":", 1)
            if key_layer != layer:
                continue
            if qualname is not None and key_name.split("[", 1)[0] != qualname:
                continue
            yield key_name, phase, record

    def calls(self, layer: str, qualname: str) -> int:
        timed = sum(record[0] for name, _, record in self._records(layer, qualname) if "[" not in name)
        return timed + self.counts.get(f"{layer}:{qualname}", 0)

    def entries(self, layer: str) -> int:
        return sum(record[3] for name, _, record in self._records(layer) if "[" not in name)

    def count_total(self, layer: str) -> int:
        return sum(value for key, value in self.counts.items() if key.split(":", 1)[0] == layer)

    def self_ms(self, layer: str, phase: Optional[str] = None) -> float:
        return sum(
            record[2]
            for _, record_phase, record in self._records(layer)
            if phase is None or record_phase == phase
        ) / 1e6

    def mean_ms(self, layer: str, qualname: str) -> float:
        records = [record for name, _, record in self._records(layer, qualname) if "[" not in name]
        calls = sum(record[0] for record in records)
        return sum(record[1] for record in records) / calls / 1e6 if calls else 0.0

    def top_self_ms(self, count: int = 8) -> list[tuple[str, float]]:
        """The functions with the most self time (a profile of the run)."""
        totals: dict[str, int] = {}
        for full, record in self.agg.items():
            key = full.split("|", 1)[0]
            totals[key] = totals.get(key, 0) + record[2]
        ranked = sorted(totals.items(), key=lambda item: -item[1])[:count]
        return [(key, round(ns / 1e6, 1)) for key, ns in ranked]

    def covered_ns(self, window: tuple[int, int]) -> int:
        """Wall time within ``window`` that some outermost span covers."""
        lo, hi = window
        covered, reach = 0, lo
        for start, end in sorted(self.roots):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        return covered


def layer_metrics(trace: TraceData, untraced: Any, traced: Any, window: tuple[int, int]) -> dict[str, float]:
    """The per-layer metrics every workload reports, from one traced round
    (``traced``, a :class:`perfbench.common.Round`) and the same round run
    untraced; ``window`` is the traced round's (start, end) in
    ``perf_counter_ns`` time.  Service-only metrics default to 0 here; the
    service workload fills them in.
    """
    counters: dict[str, float] = {}
    for job in traced.jobs:
        for key, value in job.counters.items():
            counters[key] = counters.get(key, 0.0) + value
    labels = traced.labels
    batches = sum(len(job.batch_latencies) for job in traced.jobs)
    overhead = traced.host_seconds / untraced.host_seconds - 1.0
    wall_ns = window[1] - window[0]
    wall_ms = wall_ns / 1e6
    started = counters.get("assignments_started", 0.0)
    probes = counters.get("probes_attempted", 0.0)
    waits = trace.queue_waits_ns
    build_runs = trace.calls("api.engine", "build_run")
    metrics = {
        "events.pops": trace.calls("crowd.events", "EventQueue.pop"),
        "events.schedules": trace.calls("crowd.events", "EventQueue.schedule"),
        "events.self_ms": trace.self_ms("crowd.events"),
        "platform.start_assignment.calls": trace.calls("crowd.platform", "SimulatedCrowdPlatform.start_assignment"),
        "platform.complete_assignment.calls": trace.calls("crowd.platform", "SimulatedCrowdPlatform.complete_assignment"),
        "platform.terminate_assignment.calls": trace.calls("crowd.platform", "SimulatedCrowdPlatform.terminate_assignment"),
        "platform.self_ms": trace.self_ms("crowd.platform"),
        "platform.useful_assignment_frac": counters.get("assignments_completed", 0.0) / started if started else 0.0,
        "worker.draws": trace.calls("crowd.worker", "WorkerDrawBlock.draw_latency")
        + trace.calls("crowd.worker", "WorkerDrawBlock.draw_labels"),
        "worker.self_ms": trace.self_ms("crowd.worker"),
        "pool.available_workers.calls": trace.calls("crowd.pool", "RetainerPool.available_workers"),
        "pool.self_ms": trace.self_ms("crowd.pool"),
        "tasks.calls_per_label": trace.count_total("crowd.tasks") / labels,
        "active_index.observer_calls": sum(
            trace.calls("core.active_index", f"ActiveTaskIndex.{name}")
            for name in ("assignment_started", "assignment_completed", "assignment_terminated", "task_completed")
        ),
        "active_index.self_ms": trace.self_ms("core.active_index"),
        "mitigator.pick_task.calls": trace.calls("core.mitigator", "StragglerMitigator.pick_task"),
        "mitigator.placeable_count.calls": trace.calls("core.mitigator", "StragglerMitigator.placeable_count"),
        "mitigator.self_ms": trace.self_ms("core.mitigator"),
        "lifeguard.run_batch.calls": trace.calls("core.lifeguard", "LifeGuard.run_batch"),
        "lifeguard.self_ms": trace.self_ms("core.lifeguard"),
        "lifeguard.probe_success_frac": started / probes if probes else 0.0,
        "batcher.batches": batches,
        "batcher.self_ms": trace.self_ms("core.batcher"),
        "maintainer.maintain.calls": trace.calls("core.maintainer", "PoolMaintainer.maintain"),
        "maintainer.replacements": counters.get("workers_replaced", 0.0),
        "maintainer.self_share": trace.self_ms("core.maintainer") / wall_ms,
        "termest.calls": trace.entries("core.termest"),
        "termest.self_share": trace.self_ms("core.termest") / wall_ms,
        "quality.consensus.calls": sum(
            trace.calls("core.quality", name)
            for name in ("majority_vote", "weighted_vote", "VoteAggregator.consensus")
        ),
        "quality.self_share": trace.self_ms("core.quality") / wall_ms,
        "learning.retrains": trace.calls("learning", "BaseLearner.retrain"),
        "learning.retrain.self_share": trace.self_ms("learning", "retrain") / wall_ms,
        "learning.select.self_share": trace.self_ms("learning", "select") / wall_ms,
        "engine.queue_wait_ms": sum(waits) / len(waits) / 1e6 if waits else 0.0,
        "engine.build_run_ms": trace.mean_ms("api.engine", "build_run") if build_runs else 0.0,
        "engine.events_emitted": trace.events_emitted,
        "wire.spec_from_dict_ms": trace.mean_ms("api.wire", "spec_from_dict"),
        "wire.event_to_dict.calls": trace.calls("api.wire", "event_to_dict"),
        "service.sse_frames_per_job": 0.0,
        "service.handler_share.submit": 0.0,
        "service.handler_share.labels_page": 0.0,
        "service.handler_share.get_job": 0.0,
        "service.handler_share.delete": 0.0,
        "service.transport_share": 0.0,
        "unattributed_share": 1.0 - trace.covered_ns(window) / wall_ns,
        "tracing_overhead_share": overhead,
    }
    metrics["events.pops_per_label"] = metrics["events.pops"] / labels
    missing = set(PER_LAYER_UNITS) - set(metrics)
    assert not missing, f"per-layer metrics not computed: {sorted(missing)}"
    return {name: float(metrics[name]) for name in PER_LAYER_UNITS}
