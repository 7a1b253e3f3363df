"""The benchmark's own tests, at tiny sizes (seconds, not minutes).

Run with ``python3 -m pytest perfbench/selftest.py -q`` (or
``python3 perfbench/selftest.py``) from the root of a checkout.  They are
not named ``test_*.py``, so the repository's own test suite does not collect
them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, run, service, sim, tracer  # noqa: E402

common.require_source_tree()

TINY_TIERS = ((5, 40), (12, 90))
SEED = 11


@pytest.fixture(autouse=True)
def private_results(tmp_path, monkeypatch):
    """Keep the fingerprint ledger and result files of tiny runs away from
    the real ones (same workload names and seeds, different inputs)."""
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path / "results")


def deadline() -> float:
    return common.now() + 60


def test_percentiles_report_how_many_samples_lie_beyond():
    values = [float(v) for v in range(100)]
    p90 = common.percentile_of(values, 0.90)
    assert p90.value == pytest.approx(89.1)
    assert (p90.samples, p90.beyond) == (100, 10)
    assert p90.honest(10)
    assert not common.percentile_of(values[:50], 0.90).honest(10)


def test_dishonest_percentile_fails_the_run():
    report = common.Report("sim_tail", SEED, trace=False)
    report.percentile("x_p90", common.percentile_of([1.0, 2.0, 3.0], 0.9), "s", 10)
    assert not report.correct and report.failed == 1


def test_benchmark_json_declares_what_the_code_reports():
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == common.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == tracer.PER_LAYER_UNITS


def test_sim_untraced_reports_every_end_to_end_metric():
    docs = sim.sim_tail_docs(SEED, tiers=TINY_TIERS)
    report = sim.run("sim_tail", SEED, 0.5, False, deadline(), docs=docs, min_beyond=0, setup_repeats=1)
    assert report.correct, report.checks
    line = report.result_line()
    assert list(line["metrics"]) == list(common.END_TO_END_UNITS)
    assert all(metric["value"] > 0 for metric in line["metrics"].values())
    assert line["attempted"] >= len(docs) and line["failed"] == 0


def test_sim_traced_run_repeats_its_counts_and_fingerprint():
    docs = sim.clamshell_full_docs(SEED, jobs=1, records=40, samples=200)
    first = sim.run("clamshell_full", SEED, 0, True, deadline(), docs=docs)
    second = sim.run("clamshell_full", SEED, 0, True, deadline(), docs=docs)
    for report in (first, second):
        assert report.correct, report.checks
        assert list(report.result_line()["metrics"]) == list(tracer.PER_LAYER_UNITS)
    counts = [
        {m.name: m.value for m in report.metrics if tracer.PER_LAYER_UNITS[m.name] == "count"}
        for report in (first, second)
    ]
    assert counts[0] == counts[1]
    values = {m.name: m.value for m in first.metrics}
    for name in ("learning.retrains", "maintainer.maintain.calls", "quality.consensus.calls", "events.pops"):
        assert values[name] > 0, name
    assert 0 <= values["unattributed_share"] < 0.5


def test_tracer_uninstall_restores_the_program():
    from repro.crowd.events import EventQueue
    from repro.core import lifeguard, quality

    originals = (EventQueue.pop, lifeguard.majority_vote, quality.majority_vote)
    traced = tracer.Tracer()
    traced.install()
    assert EventQueue.pop is not originals[0]
    assert lifeguard.majority_vote is quality.majority_vote is not originals[1]
    traced.uninstall()
    assert (EventQueue.pop, lifeguard.majority_vote, quality.majority_vote) == originals


def test_service_end_to_end_and_traced():
    docs = service.service_docs(SEED, jobs=4)
    report = service.run(SEED, 0, False, deadline(), docs=docs, min_beyond=0, setup_repeats=1,
                         min_jobs=0, min_requests=0)
    assert report.correct, report.checks
    assert report.failed == 0 and report.attempted > 4 * 5
    traced = service.run(SEED, 0, True, deadline(), docs=docs, min_beyond=0)
    assert traced.correct, traced.checks
    values = {m.name: m.value for m in traced.metrics}
    assert values["service.sse_frames_per_job"] > 2
    assert 0 < values["service.transport_share"] < 1
    assert all(values[f"service.handler_share.{route}"] > 0 for route in service.ROUTES)


def test_load_generator_counts_failures_and_keeps_going():
    server = service.Server()
    server.start()
    try:
        log = service.ClientLog()
        client = service.Client(server.port, log)
        assert client.request("GET", "/jobs/no-such-job", "get_job") is None
        assert client.stream("no-such-job") is None  # a 404 body is not parsed as a stream
        assert client.request("POST", "/jobs", "submit", body={"bogus": 1}) is None
        assert client.request("GET", "/healthz", "health") is not None
    finally:
        server.stop()
    assert [(e.route, e.ok, e.detail) for e in log.exchanges] == [
        ("get_job", False, "HTTP 404"),
        ("events", False, "HTTP 404"),
        ("submit", False, "HTTP 400"),
        ("health", True, ""),
    ]
    gone = service.Client(server.port, service.ClientLog())
    assert gone.request("GET", "/healthz", "health") is None
    assert not gone.log.exchanges[0].ok


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_tail", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
