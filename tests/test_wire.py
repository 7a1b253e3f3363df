"""Tests for the JSON wire format (repro.api.wire).

The contract under test: a :class:`JobSpec` serialised with
``spec_to_dict`` and rebuilt with ``spec_from_dict`` — through an actual
JSON string — describes the *same run*, bit for bit.  Recipes (generator
params, factory seeds), not payloads, cross the wire, so equality is
proven by executing both specs and comparing behavioural fingerprints,
not by comparing arrays.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivalence import labeling_config, spec_fingerprint
from repro.api.engine import JobSpec
from repro.api.wire import (
    WIRE_VERSION,
    config_from_dict,
    config_to_dict,
    dataset_from_dict,
    dataset_to_dict,
    event_to_dict,
    population_from_dict,
    population_to_dict,
    spec_from_dict,
    spec_to_dict,
    stats_to_dict,
)
from repro.core.config import (
    CLAMShellConfig,
    LearningStrategy,
    PayRates,
    StragglerRoutingPolicy,
    full_clamshell,
)
from repro.crowd.worker import PopulationParameters, WorkerPopulation
from repro.experiments.common import make_labeling_workload, mixed_speed_population
from repro.learning.datasets import Dataset, make_classification, make_mnist_like


def json_round_trip(document: dict) -> dict:
    """Through an actual JSON string, as the HTTP layer would."""
    return json.loads(json.dumps(document))


class TestConfigWire:
    def test_round_trips_every_field(self) -> None:
        config = CLAMShellConfig(
            pool_size=7,
            straggler_mitigation=True,
            straggler_routing=StragglerRoutingPolicy.FEWEST_ACTIVE,
            max_extra_assignments=3,
            maintenance_threshold=6.5,
            learning_strategy=LearningStrategy.ACTIVE,
            pay_rates=PayRates(waiting_per_minute=0.07, per_record=0.03),
            seed=11,
        )
        clone = config_from_dict(json_round_trip(config_to_dict(config)))
        assert clone == config

    def test_none_sentinels_survive(self) -> None:
        config = labeling_config(
            max_extra_assignments=None, maintenance_threshold=None
        )
        document = json_round_trip(config_to_dict(config))
        assert document["max_extra_assignments"] is None
        assert document["maintenance_threshold"] is None
        clone = config_from_dict(document)
        assert clone.max_extra_assignments is None
        assert clone.maintenance_threshold is None

    def test_integer_cap_sentinel_survives(self) -> None:
        config = labeling_config(max_extra_assignments=0)
        assert config_from_dict(
            json_round_trip(config_to_dict(config))
        ).max_extra_assignments == 0

    def test_enums_serialise_by_value(self) -> None:
        document = config_to_dict(full_clamshell())
        assert document["learning_strategy"] == "hybrid"
        assert isinstance(document["straggler_routing"], str)

    def test_partial_document_keeps_defaults(self) -> None:
        config = config_from_dict({"pool_size": 3})
        assert config.pool_size == 3
        assert config.learning_strategy is CLAMShellConfig().learning_strategy

    def test_unknown_key_named_in_error(self) -> None:
        with pytest.raises(ValueError, match="pool_sizee"):
            config_from_dict({"pool_sizee": 3})

    def test_bad_enum_value_named_in_error(self) -> None:
        with pytest.raises(ValueError, match="learning_strategy"):
            config_from_dict({"learning_strategy": "psychic"})

    def test_bad_pay_rates_key_rejected(self) -> None:
        with pytest.raises(ValueError, match="per_minute_x"):
            config_from_dict({"pay_rates": {"per_minute_x": 1.0}})

    def test_dropped_latency_cost_tradeoff_key_rejected(self) -> None:
        """Wire version 1 carried ``latency_cost_tradeoff``; version 2 names
        it as unknown instead of silently ignoring it."""
        document = spec_to_dict(wire_spec(seed=1))
        document["config"]["latency_cost_tradeoff"] = 0.9
        with pytest.raises(ValueError, match="latency_cost_tradeoff"):
            spec_from_dict(document)


class TestDatasetWire:
    def test_generated_dataset_round_trips(self) -> None:
        dataset = make_classification(n_samples=60, n_features=6, seed=5)
        clone = dataset_from_dict(json_round_trip(dataset_to_dict(dataset)))
        assert clone.name == dataset.name
        assert (clone.X == dataset.X).all()
        assert (clone.y == dataset.y).all()
        assert (clone.train_indices == dataset.train_indices).all()

    def test_labeling_workload_round_trips(self) -> None:
        dataset = make_labeling_workload(num_records=30, seed=9)
        clone = dataset_from_dict(json_round_trip(dataset_to_dict(dataset)))
        assert (clone.y == dataset.y).all()

    def test_derived_generators_carry_provenance(self) -> None:
        # make_mnist_like delegates to make_classification, which records
        # the full resolved recipe.
        dataset = make_mnist_like(n_samples=120, seed=2)
        clone = dataset_from_dict(dataset_to_dict(dataset))
        assert (clone.y == dataset.y).all()

    def test_hand_assembled_dataset_is_rejected(self) -> None:
        import numpy as np

        dataset = Dataset(
            name="adhoc",
            X=np.zeros((4, 2)),
            y=np.array([0, 1, 0, 1]),
            train_indices=np.arange(4),
            test_indices=np.arange(1),
            num_classes=2,
        )
        with pytest.raises(ValueError, match="provenance"):
            dataset_to_dict(dataset)

    def test_unknown_generator_rejected(self) -> None:
        with pytest.raises(ValueError, match="mystery"):
            dataset_from_dict({"generator": "mystery", "params": {}})

    def test_bad_generator_params_rejected(self) -> None:
        with pytest.raises(ValueError, match="labeling_workload"):
            dataset_from_dict(
                {"generator": "labeling_workload", "params": {"bogus": 1}}
            )


class TestPopulationWire:
    def test_factory_population_round_trips(self) -> None:
        population = mixed_speed_population(seed=4)
        document = json_round_trip(population_to_dict(population))
        assert document == {"factory": "mixed_speed", "seed": 4}
        clone = population_from_dict(document)
        # Equal-but-distinct: same parameters, fresh RNG state.
        assert clone is not population
        assert clone.parameters == population.parameters

    def test_hand_built_population_is_rejected(self) -> None:
        population = WorkerPopulation(
            parameters=PopulationParameters(), seed=0
        )
        with pytest.raises(ValueError, match="provenance"):
            population_to_dict(population)

    def test_unknown_factory_rejected(self) -> None:
        with pytest.raises(ValueError, match="martian"):
            population_from_dict({"factory": "martian", "seed": 0})

    def test_bad_seed_rejected(self) -> None:
        with pytest.raises(ValueError, match="seed"):
            population_from_dict({"factory": "mixed_speed", "seed": "zero"})


def wire_spec(seed: int, num_records: int = 12, **config_overrides) -> JobSpec:
    """A freshly built serialisable spec (new population instance each call)."""
    config_overrides.setdefault("pool_size", 5)
    return JobSpec(
        dataset=make_labeling_workload(num_records=2 * num_records, seed=seed),
        config=labeling_config(seed=seed, **config_overrides),
        population=mixed_speed_population(seed=seed),
        num_records=num_records,
        seed=seed,
        name=f"wire-{seed}",
    )


class TestSpecWire:
    def test_document_shape(self) -> None:
        document = spec_to_dict(wire_spec(seed=1))
        assert document["wire_version"] == WIRE_VERSION
        assert document["dataset"]["generator"] == "labeling_workload"
        assert document["population"] == {"factory": "mixed_speed", "seed": 1}
        assert document["num_records"] == 12

    def test_from_dict_requires_dataset(self) -> None:
        with pytest.raises(ValueError, match="dataset"):
            spec_from_dict({"num_records": 5})

    def test_unknown_top_level_key_rejected(self) -> None:
        document = spec_to_dict(wire_spec(seed=1))
        document["surprise"] = True
        with pytest.raises(ValueError, match="surprise"):
            spec_from_dict(document)

    def test_unknown_uncertainty_measure_rejected(self) -> None:
        document = spec_to_dict(wire_spec(seed=1))
        document["config"]["uncertainty_measure"] = "psychic"
        with pytest.raises(ValueError, match="uncertainty_measure"):
            JobSpec.from_dict(document)

    def test_unsupported_version_rejected(self) -> None:
        document = spec_to_dict(wire_spec(seed=1))
        document["wire_version"] = WIRE_VERSION + 1
        with pytest.raises(ValueError, match="wire_version"):
            spec_from_dict(document)

    def test_process_local_state_is_rejected(self) -> None:
        spec = wire_spec(seed=1).with_overrides(learner_factory=lambda: None)
        with pytest.raises(ValueError, match="learner_factory"):
            spec_to_dict(spec)

    def test_absent_population_stays_default(self) -> None:
        document = spec_to_dict(wire_spec(seed=1))
        document["population"] = None
        assert spec_from_dict(document).population is None

    def test_job_spec_methods_delegate(self) -> None:
        spec = wire_spec(seed=2)
        clone = JobSpec.from_dict(json_round_trip(spec.to_dict()))
        assert clone.num_records == spec.num_records
        assert clone.config == spec.config

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        pool_size=st.integers(min_value=3, max_value=8),
        cap=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    )
    def test_round_tripped_spec_runs_bit_identically(
        self, seed: int, pool_size: int, cap
    ) -> None:
        """The tentpole property: serialise, ship as JSON, rebuild, run —
        the clone's behavioural fingerprint equals the original's."""
        document = json_round_trip(
            spec_to_dict(wire_spec(seed=seed, pool_size=pool_size,
                                   max_extra_assignments=cap))
        )
        original = wire_spec(  # fresh build: populations are stateful
            seed=seed, pool_size=pool_size, max_extra_assignments=cap
        )
        clone = spec_from_dict(document)
        assert spec_fingerprint(clone) == spec_fingerprint(original)


class TestObservationWire:
    def test_event_and_stats_serialise_to_json(self) -> None:
        from repro.api.engine import Engine

        spec = wire_spec(seed=3)
        engine = Engine()
        result, stats = engine.run_with_stats(spec)
        events = list(engine.stream(wire_spec(seed=3)))
        documents = [json_round_trip(event_to_dict(event)) for event in events]
        assert documents[0]["kind"] == "run_started"
        assert documents[-1]["kind"] == "run_finished"
        assert documents[-1]["result"]["records_labeled"] == 12
        # Label keys are stringified record ids.
        batch = next(d for d in documents if d["kind"] == "batch_completed")
        assert all(isinstance(key, str) for key in batch["new_labels"])
        stats_document = json_round_trip(stats_to_dict(stats))
        assert stats_document["labels"] == result.metrics.records_labeled
        assert stats_document["counters"] == {
            key: stats.counters[key] for key in sorted(stats.counters)
        }
