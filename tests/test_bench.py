"""Tests for the machine-readable benchmark subsystem (repro.bench)."""

import copy
import itertools
import json
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    available_workloads,
    compare_documents,
    compare_files,
    get_workload,
    load_result,
    register_workload,
    run_benchmark,
    validate_document,
    write_result,
)
from repro.bench.registry import WorkloadOutcome, _REGISTRY
from repro.bench.runner import OUTCOME_KEYS, REQUIRED_KEYS, outcome_fields
from repro.cli import main

#: A scale sweep small enough for unit tests (one 5-worker pool, 30 records).
TINY_SWEEP = {"sweep": [[5, 30]]}


def run_tiny(seed=0, repeat=1):
    return run_benchmark("scale", seed=seed, repeat=repeat, params=TINY_SWEEP)


class TestRegistry:
    def test_builtin_workloads_registered(self):
        names = available_workloads()
        for expected in ("headline", "straggler", "maintenance", "hybrid", "scale"):
            assert expected in names

    def test_unknown_workload_raises_with_known_names(self):
        with pytest.raises(KeyError, match="scale"):
            get_workload("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload("scale")(lambda seed=0: None)

    def test_defaults_recorded_on_spec(self):
        spec = get_workload("scale")
        assert "sweep" in spec.defaults


class TestRunner:
    def test_result_carries_the_outcome(self):
        result = run_tiny()
        assert result.outcome.events_processed > 0
        assert result.outcome.labels == 30
        assert result.params == TINY_SWEEP

    def test_repeat_validation(self):
        with pytest.raises(ValueError):
            run_benchmark("scale", repeat=0)

    def test_same_seed_runs_are_identical(self, tmp_path):
        """Byte for byte: the written document is a pure function of
        (workload, seed, params)."""
        first = write_result(run_tiny(seed=7), tmp_path / "first.json")
        second = write_result(run_tiny(seed=7), tmp_path / "second.json")
        assert first.read_bytes() == second.read_bytes()

    def test_different_seeds_differ(self):
        first = outcome_fields(run_tiny(seed=0).to_dict())
        second = outcome_fields(run_tiny(seed=1).to_dict())
        assert first != second

    def test_repeat_determinism_check_passes_for_real_workloads(self):
        assert run_tiny(repeat=2).outcome.labels == 30

    def test_nondeterministic_workload_detected(self):
        counter = itertools.count()

        @register_workload("_test_nondet", description="intentionally broken")
        def nondet(seed=0):
            return WorkloadOutcome(
                sim_seconds=1.0,
                events_processed=0,
                labels=0,
                cost=0.0,
                details={"draw": next(counter)},
            )

        try:
            with pytest.raises(RuntimeError, match="nondeterministic"):
                run_benchmark("_test_nondet", repeat=2)
        finally:
            _REGISTRY.pop("_test_nondet", None)


class TestJsonSchema:
    def test_round_trip(self, tmp_path):
        result = run_tiny()
        path = write_result(result, tmp_path / "BENCH_scale.json")
        loaded = load_result(path)
        assert loaded == result.to_dict()
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["workload"] == "scale"
        assert loaded["seed"] == 0
        assert loaded["labels"] == result.outcome.labels
        assert loaded["cost"]["total_dollars"] == pytest.approx(
            result.outcome.cost, abs=1e-5
        )
        assert loaded["params"]["sweep"] == [[5, 30]]

    def test_document_holds_only_deterministic_fields(self):
        """No wall time, throughput or provenance stamp: the document is a
        pure function of (workload, seed, params)."""
        assert tuple(run_tiny().to_dict()) == REQUIRED_KEYS

    def test_dispatch_probe_counters_split_out_of_cost(self, tmp_path):
        """Probe diagnostics live in their own ``dispatch`` section, apart
        from what the crowd is paid for."""
        result = run_tiny()
        path = write_result(result, tmp_path / "BENCH_scale.json")
        loaded = load_result(path)
        assert set(loaded["dispatch"]) == {"probes_attempted", "probes_futile"}
        assert loaded["dispatch"]["probes_attempted"] > 0
        assert not any(key.startswith("probes_") for key in loaded["cost"])
        # The probe invariant survives serialisation.
        assert loaded["dispatch"]["probes_attempted"] == (
            loaded["cost"]["assignments_started"]
            + loaded["dispatch"]["probes_futile"]
        )

    def test_write_creates_parent_directories(self, tmp_path):
        result = run_tiny()
        path = write_result(result, tmp_path / "deep" / "dir" / "BENCH_scale.json")
        assert path.exists()

    def test_validate_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing keys"):
            validate_document({"workload": "scale"})

    def test_validate_rejects_wrong_version(self, tmp_path):
        result = run_tiny()
        document = result.to_dict()
        document["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            validate_document(document)

    def test_v1_document_rejected_naming_schema_version(self, tmp_path):
        """A v1 document carries every v2 key plus the wall-clock ones; it is
        rejected by version, not read with its timings ignored."""
        document = {
            **run_tiny().to_dict(),
            "schema_version": 1,
            "git_sha": "abc1234",
            "wall_seconds": {"all": [0.1], "best": 0.1, "mean": 0.1},
            "events_per_second": 300.0,
        }
        path = tmp_path / "BENCH_scale.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="schema_version 1"):
            load_result(path)

    def test_load_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ValueError):
            load_result(path)


@pytest.fixture(scope="module")
def tiny_document():
    return run_tiny().to_dict()


def _changed(value):
    """``value`` with one deterministic edit, whatever its JSON type."""
    if isinstance(value, dict):
        return {**value, "edited": 1}
    return value + 1


class TestComparator:
    @pytest.fixture(autouse=True)
    def _document(self, tiny_document):
        self.document = tiny_document

    def base_document(self):
        return copy.deepcopy(self.document)

    def test_identical_documents_pass(self):
        report = compare_documents(self.document, self.base_document())
        assert report.passed
        assert report.messages == []

    @pytest.mark.parametrize("key", OUTCOME_KEYS)
    def test_one_field_difference_is_one_mismatch(self, key):
        current = self.base_document()
        current[key] = _changed(current[key])
        report = compare_documents(self.document, current)
        assert not report.passed
        assert len(report.messages) == 1
        assert report.messages[0].startswith(f"MISMATCH: {key}:")

    def test_params_are_not_gated(self):
        """The scan oracle (``use_index=false``) and the process executor
        are checked against the default run's baseline."""
        current = self.base_document()
        current["params"] = {**current["params"], "use_index": False}
        assert compare_documents(self.document, current).passed

    def test_workload_mismatch_is_an_error(self):
        current = self.base_document()
        current["workload"] = "headline"
        with pytest.raises(ValueError, match="different workloads"):
            compare_documents(self.document, current)

    def test_seed_mismatch_is_an_error(self):
        current = self.base_document()
        current["seed"] = 99
        with pytest.raises(ValueError, match="different seeds"):
            compare_documents(self.document, current)

    def test_strict_flags_outcome_mismatch_for_same_seed(self):
        """A real behaviour change at the same seed (no duplication at all
        instead of unlimited) fails, naming the fields it moved."""
        changed = run_benchmark(
            "scale", params={**TINY_SWEEP, "max_extra_assignments": 0}
        ).to_dict()
        report = compare_documents(self.document, changed)
        assert not report.passed
        assert any(message.startswith("MISMATCH: cost:") for message in report.messages)

    def test_strict_passes_for_identical_outcomes(self):
        assert compare_documents(self.document, run_tiny().to_dict()).passed

    def test_strict_gates_dispatch_differences(self):
        """Probe counters are deterministic for a seed: a change that probes
        differently fails even when labels and cost agree."""
        current = self.base_document()
        current["dispatch"] = {
            key: value * 10 for key, value in current["dispatch"].items()
        }
        report = compare_documents(self.document, current)
        assert not report.passed
        assert [message.split(" ", 2)[1] for message in report.messages] == [
            "dispatch:"
        ]
        assert "probes_attempted" in report.messages[0]

    def test_compare_files(self, tmp_path):
        result = run_tiny()
        baseline = write_result(result, tmp_path / "baseline.json")
        current = write_result(result, tmp_path / "current.json")
        assert compare_files(baseline, current).passed


class TestBenchCli:
    def test_bench_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--help"])
        assert excinfo.value.code == 0
        assert "compare" in capsys.readouterr().out

    def test_bench_list_names_workloads(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("headline", "scale"):
            assert name in out

    def test_unknown_workload_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "warp-speed"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_workload_run_writes_json(self, tmp_path, capsys):
        target = tmp_path / "out" / "BENCH_scale.json"
        code = main(
            [
                "bench",
                "scale",
                "--param",
                "sweep=[[5, 30]]",
                "--json",
                str(target),
            ]
        )
        assert code == 0
        assert target.exists()
        loaded = load_result(target)
        assert loaded["workload"] == "scale"
        assert "events processed" in capsys.readouterr().out

    def test_bad_param_syntax_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "scale", "--param", "novalue"])
        assert excinfo.value.code == 2

    def test_compare_cli_pass_and_fail_exit_codes(self, tmp_path, capsys):
        result = run_tiny()
        baseline_path = write_result(result, tmp_path / "baseline.json")
        current_path = write_result(result, tmp_path / "current.json")
        assert (
            main(["bench", "compare", str(baseline_path), str(current_path)]) == 0
        )
        edited = result.to_dict()
        edited["cost"]["assignments_started"] += 1
        edited_path = tmp_path / "edited.json"
        edited_path.write_text(json.dumps(edited))
        assert main(["bench", "compare", str(baseline_path), str(edited_path)]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH: cost: assignments_started" in out
        assert "FAIL" in out


BASELINES_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


class TestCommittedBaselines:
    """The baselines the CI gate reads must stay schema-valid and coherent."""

    def test_committed_baselines_are_schema_valid(self):
        paths = sorted(BASELINES_DIR.glob("BENCH_*.json"))
        assert len(paths) == 6
        for path in paths:
            assert load_result(path)["labels"] > 0

    @pytest.mark.parametrize("workload", ["headline", "concurrency"])
    def test_baseline_reproduces(self, workload):
        """The cheap baselines, regenerated here, compare equal (CI does the
        rest)."""
        baseline = load_result(BASELINES_DIR / f"BENCH_{workload}.json")
        current = run_benchmark(workload).to_dict()
        report = compare_documents(baseline, current)
        assert report.passed, report.summary_lines()

    def test_capped_baseline_is_schema_valid_and_capped(self):
        document = load_result(BASELINES_DIR / "BENCH_scale_capped.json")
        assert document["workload"] == "scale_capped"
        assert document["params"]["max_extra_assignments"] == 2

    def test_capped_baseline_cuts_the_assignment_tail(self):
        """The committed capped baseline shows >= 2x fewer assignment starts
        than the uncapped scale baseline at the 1000-worker tier (and >= 2x
        overall), for the same labels."""
        uncapped = load_result(BASELINES_DIR / "BENCH_scale.json")
        capped = load_result(BASELINES_DIR / "BENCH_scale_capped.json")
        assert capped["labels"] == uncapped["labels"]
        assert (
            uncapped["cost"]["assignments_started"]
            >= 2.0 * capped["cost"]["assignments_started"]
        )

        def tier_1000(document):
            [point] = [
                p
                for p in document["details"]["sweep"]
                if p["pool_size"] == 1000
            ]
            return point

        capped_point = tier_1000(capped)
        assert capped_point["labels"] == 8000
        # The uncapped tail starts ~8 assignments per record at this tier
        # (64k starts for 8k records); the committed capped point must show
        # at least the 2x cut the bounded tail promises.
        uncapped_starts = tier_1000(uncapped)["assignments_started"]
        assert uncapped_starts >= 2.0 * capped_point["assignments_started"]

    def test_capped_baseline_matches_the_scan_oracle(self):
        """The committed capped baseline (indexed dispatch) is bit-identical
        in labels, cost counters, events, and simulated time to its
        ``pick_task_scan`` twin (``--param use_index=false``)."""
        oracle = load_result(BASELINES_DIR / "BENCH_scale_capped.oracle.json")
        indexed = load_result(BASELINES_DIR / "BENCH_scale_capped.json")
        assert oracle["params"]["use_index"] is False
        report = compare_documents(oracle, indexed)
        assert report.passed, report.summary_lines()


class TestScaleCappedWorkload:
    TINY = {"sweep": [[6, 40]]}

    def test_registered_with_cap_default(self):
        assert "scale_capped" in available_workloads()
        assert get_workload("scale_capped").defaults["max_extra_assignments"] == 2

    def test_cap_reduces_assignment_starts_for_same_labels(self):
        uncapped = get_workload("scale").execute(seed=0, **self.TINY)
        capped = get_workload("scale_capped").execute(seed=0, **self.TINY)
        assert capped.labels == uncapped.labels == 40
        assert (
            capped.counters["assignments_started"]
            < uncapped.counters["assignments_started"]
        )

    def test_indexed_and_oracle_dispatch_agree(self):
        """use_index=False (the pick_task_scan oracle) must produce the same
        outcome as the indexed capped run — probe counters included,
        because both paths must make the same placeability decisions."""
        spec = get_workload("scale_capped")
        indexed = spec.execute(seed=3, **self.TINY)
        oracle = spec.execute(seed=3, use_index=False, **self.TINY)
        assert indexed == oracle

    def test_cli_accepts_capped_workload(self, tmp_path, capsys):
        json_path = tmp_path / "BENCH_scale_capped.json"
        code = main(
            [
                "bench",
                "scale_capped",
                "--param",
                "sweep=[[6, 40]]",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        document = json.loads(json_path.read_text())
        assert document["workload"] == "scale_capped"
        assert document["params"]["max_extra_assignments"] == 2
        assert document["details"]["sweep"][0]["assignments_started"] > 0


class TestConcurrencyWorkload:
    #: Small enough for unit tests: 2 jobs x 20 records on 3-worker pools.
    TINY = {"num_jobs": 2, "max_workers": 2, "num_records": 20, "pool_size": 3}

    def test_registered_with_defaults(self):
        assert "concurrency" in available_workloads()
        spec = get_workload("concurrency")
        assert spec.defaults["num_jobs"] > 0
        assert spec.defaults["max_workers"] > 0

    def test_outcome_aggregates_all_jobs(self):
        outcome = get_workload("concurrency").execute(seed=0, **self.TINY)
        assert outcome.labels == 2 * 20
        assert outcome.details["per_job_labels"] == [20, 20]
        assert outcome.events_processed > 0
        assert outcome.cost > 0

    def test_deterministic_across_repeats(self):
        """Thread interleaving must not leak into the outcome."""
        result = run_benchmark("concurrency", seed=0, repeat=3, params=self.TINY)
        assert result.outcome.labels == 2 * 20

    def test_jobs_with_distinct_seeds_differ(self):
        first = get_workload("concurrency").execute(seed=0, **self.TINY)
        second = get_workload("concurrency").execute(seed=1, **self.TINY)
        assert first != second

    def test_emits_schema_valid_json(self, tmp_path):
        result = run_benchmark("concurrency", seed=0, params=self.TINY)
        path = write_result(result, tmp_path / "BENCH_concurrency.json")
        document = load_result(path)
        assert document["workload"] == "concurrency"
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["labels"] == 2 * 20

    def test_cli_run_writes_json(self, tmp_path, capsys):
        target = tmp_path / "BENCH_concurrency.json"
        code = main(
            [
                "bench", "concurrency", "--repeat", "2",
                "--json", str(target),
                "--param", "num_jobs=2", "--param", "max_workers=2",
                "--param", "num_records=20", "--param", "pool_size=3",
            ]
        )
        assert code == 0
        assert load_result(target)["workload"] == "concurrency"
