"""The versioned JSON wire format for the engine API.

This module is what lets a labeling run cross a process boundary: every
object a service client needs to describe a run (:class:`JobSpec` and its
collaborators) or to observe one (:class:`ProgressEvent`,
:class:`ExecutionStats`, :class:`~repro.core.batcher.RunResult`) has a
JSON-serialisable dict form here.  The HTTP front end (:mod:`repro.service`)
speaks exactly this format; nothing in it is service-specific, so the same
dicts work as on-disk job descriptions or test fixtures.

Design rules:

* **Versioned.**  Every spec document carries ``"wire_version"``; a reader
  rejects versions it does not understand instead of guessing.
* **Provenance, not payloads.**  A dataset is serialised as the *recipe*
  that generated it (generator name + parameters), not as feature matrices;
  worker populations serialise as (factory name, seed).  Rebuilding from the
  recipe is deterministic, so a round-tripped spec produces a bit-identical
  run — the property the equivalence suite pins.
* **Sentinels survive.**  Config fields whose ``None`` means "off/unlimited"
  (``max_extra_assignments``, ``maintenance_threshold``) map to JSON
  ``null`` and back; enums (``learning_strategy``, ``straggler_routing``)
  map to their string values.
* **Strict reads.**  Unknown keys, unknown enum values, unknown generator or
  factory names, and unsupported versions all raise ``ValueError`` naming
  the offender — a service must not silently drop half a client's request.

Fields that cannot cross a process boundary (``learner_factory``,
``decision_latency``, populations or datasets built without provenance)
make :func:`spec_to_dict` raise; the engine API keeps accepting them for
in-process use.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping

from ..core.batcher import RunResult
from ..core.config import (
    CLAMShellConfig,
    LearningStrategy,
    PayRates,
    StragglerRoutingPolicy,
)
from ..crowd.worker import WorkerPopulation
from ..learning.datasets import Dataset
from .engine import ExecutionStats, JobSpec
from .events import ProgressEvent

#: Version of the spec wire format produced by this module.  Bumped on any
#: incompatible change; readers reject documents from other versions.
#: Version 2 dropped the config key ``latency_cost_tradeoff``, which no code
#: read.
WIRE_VERSION = 2

#: Attribute carrying a population's (factory, seed) provenance, stamped by
#: the registered factories so live instances can re-serialise.
_POPULATION_SOURCE_ATTR = "wire_source"


# ---------------------------------------------------------------------------
# registries: dataset generators and population factories
# ---------------------------------------------------------------------------


def dataset_generators() -> dict[str, Callable[..., Dataset]]:
    """Named dataset generators the wire format can rebuild from.

    Imported lazily: ``labeling_workload`` lives in the experiments layer,
    which itself imports the engine.
    """
    from ..experiments.common import make_labeling_workload
    from ..learning.datasets import make_classification

    return {
        "classification": make_classification,
        "labeling_workload": make_labeling_workload,
    }


def population_factories() -> dict[str, Callable[..., WorkerPopulation]]:
    """Named population factories the wire format can rebuild from."""
    from ..crowd.traces import default_simulation_population
    from ..experiments.common import fast_population, mixed_speed_population

    return {
        "default": default_simulation_population,
        "fast": fast_population,
        "mixed_speed": mixed_speed_population,
    }


def _reject_unknown_keys(
    data: Mapping[str, Any], known: set[str], what: str
) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"{what} has unknown key(s): {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(sorted(known))}"
        )


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------


def dataset_to_dict(dataset: Dataset) -> dict[str, Any]:
    """Serialise a dataset as its generation recipe.

    Requires the dataset to carry ``source`` provenance (every built-in
    generator records one); hand-assembled datasets cannot cross the wire.
    """
    if dataset.source is None:
        raise ValueError(
            f"dataset {dataset.name!r} carries no generation provenance and "
            "cannot be serialised; build it with a registered generator "
            f"({', '.join(sorted(dataset_generators()))})"
        )
    return {
        "generator": dataset.source["generator"],
        "params": dict(dataset.source.get("params", {})),
    }


def dataset_from_dict(data: Mapping[str, Any]) -> Dataset:
    """Rebuild a dataset from its generation recipe."""
    _reject_unknown_keys(data, {"generator", "params"}, "dataset document")
    generators = dataset_generators()
    name = data.get("generator")
    if name not in generators:
        raise ValueError(
            f"unknown dataset generator {name!r}; registered generators: "
            f"{', '.join(sorted(generators))}"
        )
    params = data.get("params") or {}
    if not isinstance(params, Mapping):
        raise ValueError("dataset 'params' must be an object")
    try:
        return generators[name](**params)
    except TypeError as error:
        raise ValueError(
            f"dataset generator {name!r} rejected params {dict(params)!r}: "
            f"{error}"
        ) from None


# ---------------------------------------------------------------------------
# population
# ---------------------------------------------------------------------------


def population_to_dict(population: WorkerPopulation) -> dict[str, Any]:
    """Serialise a population as its (factory, seed) provenance."""
    source = getattr(population, _POPULATION_SOURCE_ATTR, None)
    if source is None:
        raise ValueError(
            "population carries no factory provenance and cannot be "
            "serialised; build it with a registered factory "
            f"({', '.join(sorted(population_factories()))}) or submit the "
            "spec with population=None to draw the default from the job seed"
        )
    return dict(source)


def population_from_dict(data: Mapping[str, Any]) -> WorkerPopulation:
    """Rebuild a population from a (factory, seed) reference."""
    _reject_unknown_keys(data, {"factory", "seed"}, "population document")
    factories = population_factories()
    name = data.get("factory")
    if name not in factories:
        raise ValueError(
            f"unknown population factory {name!r}; registered factories: "
            f"{', '.join(sorted(factories))}"
        )
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"population 'seed' must be an integer, got {seed!r}")
    return factories[name](seed=seed)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = {field.name for field in dataclasses.fields(CLAMShellConfig)}
_PAY_RATE_FIELDS = {field.name for field in dataclasses.fields(PayRates)}


def config_to_dict(config: CLAMShellConfig) -> dict[str, Any]:
    """Every config knob, JSON-ready: enums by value, sentinels as null."""
    payload: dict[str, Any] = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, (LearningStrategy, StragglerRoutingPolicy)):
            value = value.value
        elif isinstance(value, PayRates):
            value = {
                name: getattr(value, name) for name in sorted(_PAY_RATE_FIELDS)
            }
        payload[field.name] = value
    return payload


def _enum_from_value(enum_type: Any, value: Any, field: str) -> Any:
    try:
        return enum_type(value)
    except ValueError:
        choices = ", ".join(repr(member.value) for member in enum_type)
        raise ValueError(
            f"config field {field!r} must be one of {choices}, got {value!r}"
        ) from None


def config_from_dict(data: Mapping[str, Any]) -> CLAMShellConfig:
    """Rebuild a config; absent keys keep their defaults, unknown keys raise."""
    _reject_unknown_keys(data, _CONFIG_FIELDS, "config document")
    kwargs: dict[str, Any] = dict(data)
    if "learning_strategy" in kwargs:
        kwargs["learning_strategy"] = _enum_from_value(
            LearningStrategy, kwargs["learning_strategy"], "learning_strategy"
        )
    if "straggler_routing" in kwargs:
        kwargs["straggler_routing"] = _enum_from_value(
            StragglerRoutingPolicy,
            kwargs["straggler_routing"],
            "straggler_routing",
        )
    if "pay_rates" in kwargs:
        rates = kwargs["pay_rates"]
        if not isinstance(rates, Mapping):
            raise ValueError("config field 'pay_rates' must be an object")
        _reject_unknown_keys(rates, _PAY_RATE_FIELDS, "pay_rates document")
        kwargs["pay_rates"] = PayRates(**rates)
    return CLAMShellConfig(**kwargs)


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------

_SPEC_KEYS = {
    "wire_version",
    "dataset",
    "config",
    "population",
    "num_records",
    "accuracy_target",
    "max_batches",
    "seed",
    "backend",
    "backend_options",
    "name",
}


def spec_to_dict(spec: JobSpec) -> dict[str, Any]:
    """Serialise a spec to the versioned wire document.

    Raises ``ValueError`` when the spec holds process-local state the wire
    cannot carry (``learner_factory``, ``decision_latency``, or a dataset /
    population without provenance).
    """
    if spec.learner_factory is not None:
        raise ValueError(
            "JobSpec.learner_factory is a process-local callable and cannot "
            "be serialised; configure learning through config.learning_strategy"
        )
    if spec.decision_latency is not None:
        raise ValueError(
            "JobSpec.decision_latency is process-local state and cannot be "
            "serialised"
        )
    return {
        "wire_version": WIRE_VERSION,
        "dataset": dataset_to_dict(spec.dataset),
        "config": config_to_dict(spec.config),
        "population": (
            None if spec.population is None else population_to_dict(spec.population)
        ),
        "num_records": spec.num_records,
        "accuracy_target": spec.accuracy_target,
        "max_batches": spec.max_batches,
        "seed": spec.seed,
        "backend": spec.backend,
        "backend_options": (
            None if spec.backend_options is None else dict(spec.backend_options)
        ),
        "name": spec.name,
    }


def spec_from_dict(data: Mapping[str, Any]) -> JobSpec:
    """Rebuild a spec from a wire document (absent keys keep spec defaults)."""
    if not isinstance(data, Mapping):
        raise ValueError("a JobSpec document must be a JSON object")
    _reject_unknown_keys(data, _SPEC_KEYS, "JobSpec document")
    version = data.get("wire_version", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise ValueError(
            f"unsupported wire_version {version!r} "
            f"(this build reads version {WIRE_VERSION})"
        )
    if "dataset" not in data:
        raise ValueError("a JobSpec document requires a 'dataset' recipe")
    dataset_doc = data["dataset"]
    if not isinstance(dataset_doc, Mapping):
        raise ValueError("JobSpec 'dataset' must be an object")
    kwargs: dict[str, Any] = {"dataset": dataset_from_dict(dataset_doc)}
    if data.get("config") is not None:
        config_doc = data["config"]
        if not isinstance(config_doc, Mapping):
            raise ValueError("JobSpec 'config' must be an object")
        kwargs["config"] = config_from_dict(config_doc)
    if data.get("population") is not None:
        population_doc = data["population"]
        if not isinstance(population_doc, Mapping):
            raise ValueError("JobSpec 'population' must be an object")
        kwargs["population"] = population_from_dict(population_doc)
    for key in (
        "num_records",
        "accuracy_target",
        "max_batches",
        "seed",
        "backend",
        "backend_options",
        "name",
    ):
        if key in data and data[key] is not None:
            kwargs[key] = data[key]
    try:
        return JobSpec(**kwargs)
    except TypeError as error:
        raise ValueError(f"invalid JobSpec document: {error}") from None


# ---------------------------------------------------------------------------
# run observation: events, stats, results
# ---------------------------------------------------------------------------


def result_summary(result: RunResult) -> dict[str, Any]:
    """The scalar outcome of a finished run (labels travel via pagination)."""
    return {
        "records_labeled": result.metrics.records_labeled,
        "num_batches": len(result.batch_outcomes),
        "total_wall_clock": result.metrics.total_wall_clock,
        "total_cost": result.total_cost,
        "final_accuracy": result.final_accuracy,
    }


def event_to_dict(event: ProgressEvent) -> dict[str, Any]:
    """One progress event, JSON-ready (label keys become strings)."""
    payload: dict[str, Any] = {
        "kind": event.kind.value,
        "batch_index": event.batch_index,
        "wall_clock": event.wall_clock,
        "records_labeled": event.records_labeled,
        "pool_size": event.pool_size,
        "new_labels": {
            str(record): int(label) for record, label in event.new_labels.items()
        },
        "batch_latency": event.batch_latency,
        "accuracy_estimate": event.accuracy_estimate,
        "workers_replaced": event.workers_replaced,
        "assignments_started": event.assignments_started,
        "assignments_terminated": event.assignments_terminated,
    }
    if event.result is not None:
        payload["result"] = result_summary(event.result)
    return payload


def stats_to_dict(stats: ExecutionStats) -> dict[str, Any]:
    """Simulator-side stats of a finished run, JSON-ready."""
    return {
        "sim_seconds": stats.sim_seconds,
        "events_processed": stats.events_processed,
        "events_scheduled": stats.events_scheduled,
        "labels": stats.labels,
        "total_cost": stats.total_cost,
        "counters": {key: stats.counters[key] for key in sorted(stats.counters)},
    }
