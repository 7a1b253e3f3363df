"""The in-process workloads: ``sim_tail`` and ``clamshell_full``.

Each round submits its jobs one at a time to an :class:`repro.Engine` and
waits for each, so every job runs alone and the engine's queue wait is its
own dispatch overhead.  Jobs reach the program as wire documents
(``JobSpec.from_dict``), generated from the run seed.

The worker population of each job is a fixed part of the workload (its seed
does not depend on ``--seed``); the run seed varies the records, the ground
truth and every simulated draw.  A fixed crowd keeps the paper-level metrics
comparable from seed to seed: with crowds drawn per seed, the spread of
batch latency between seeds of a 25-worker pool alone exceeds 10%.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Any, Callable, Sequence

from . import common
from .common import JobOutcome, Report, Round, now, sub_seed

#: sim_tail's (pool size, records) tiers: the ``scale_capped`` regime.
SIM_TAIL_TIERS: tuple[tuple[int, int], ...] = ((25, 1000), (50, 2000), (100, 4000), (1000, 8000))

#: clamshell_full: jobs per round and records labeled per job.  Five pools of
#: 25 give the round more than 100 batches, enough for an honest p90.
CLAMSHELL_JOBS = 5
CLAMSHELL_RECORDS = 520
CLAMSHELL_SAMPLES = 2000

#: Base seed of the fixed worker populations (one per job slot).
POPULATION_SEED = 7000

#: Setup is measured this many times per run; the median is reported.
SETUP_REPEATS = 3

JOB_TIMEOUT_S = 120.0


def sim_tail_docs(seed: int, tiers: Sequence[tuple[int, int]] = SIM_TAIL_TIERS) -> list[dict[str, Any]]:
    """One labeling-only job per tier: mitigation on with duplicate cap 2,
    no maintenance, no learning, one vote per record."""
    docs = []
    for index, (pool, records) in enumerate(tiers):
        job_seed = sub_seed(seed, "sim_tail", index)
        docs.append(
            {
                "dataset": {
                    "generator": "labeling_workload",
                    "params": {"num_records": records, "seed": job_seed},
                },
                "config": {
                    "pool_size": pool,
                    "straggler_mitigation": True,
                    "max_extra_assignments": 2,
                    "maintenance_threshold": None,
                    "learning_strategy": "none",
                    "votes_required": 1,
                    "seed": job_seed,
                },
                "population": {"factory": "mixed_speed", "seed": POPULATION_SEED + index},
                "num_records": records,
                "max_batches": 1000,
                "name": f"sim_tail-{pool}x{records}",
            }
        )
    return docs


def clamshell_full_docs(
    seed: int,
    jobs: int = CLAMSHELL_JOBS,
    records: int = CLAMSHELL_RECORDS,
    samples: int = CLAMSHELL_SAMPLES,
) -> list[dict[str, Any]]:
    """The §6.6 full CLAMShell configuration (hybrid learning, PM8 with
    TermEst, duplicate cap 2) with quality control at three votes."""
    docs = []
    for index in range(jobs):
        job_seed = sub_seed(seed, "clamshell_full", index)
        docs.append(
            {
                "dataset": {
                    "generator": "classification",
                    "params": {"n_samples": samples, "n_classes": 2, "seed": job_seed},
                },
                "config": {
                    "pool_size": 25,
                    "pool_batch_ratio": 1.0,
                    "straggler_mitigation": True,
                    "max_extra_assignments": 2,
                    "maintenance_threshold": 8.0,
                    "use_termest": True,
                    "learning_strategy": "hybrid",
                    "asynchronous_retraining": True,
                    "votes_required": 3,
                    "seed": job_seed,
                },
                "population": {"factory": "default", "seed": POPULATION_SEED + index},
                "num_records": records,
                "name": f"clamshell_full-{index}",
            }
        )
    return docs


#: Workload name -> generator of its round's job documents from the seed.
WORKLOADS: dict[str, Callable[[int], list[dict[str, Any]]]] = {
    "sim_tail": sim_tail_docs,
    "clamshell_full": clamshell_full_docs,
}

# Child program for set-up time: import the program and build the first
# JobSpec from the document on stdin, then say so.
_SETUP_PROBE = (
    "import json, sys\n"
    "import repro\n"
    "from repro import JobSpec\n"
    "JobSpec.from_dict(json.loads(sys.stdin.read()))\n"
    "print('ready', flush=True)\n"
)


def measure_setup(first_doc: dict[str, Any], repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from launching a fresh interpreter until ``import repro`` is
    done and the first JobSpec is built, ``repeats`` times."""
    samples = []
    for _ in range(repeats):
        started = now()
        child = subprocess.Popen(
            [sys.executable, "-c", _SETUP_PROBE],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=common.ROOT,
            env=common.child_env(),
        )
        assert child.stdin is not None and child.stdout is not None
        try:
            child.stdin.write(json.dumps(first_doc))
            child.stdin.close()
            line = child.stdout.readline().strip()
            elapsed = now() - started
            child.stdout.close()
            child.wait(timeout=60)
        except BaseException:
            child.kill()
            child.wait()
            raise
        if line != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode}, said {line!r})")
        samples.append(elapsed)
    return samples


def job_problems(spec: Any, result: Any, events: Sequence[Any]) -> list[str]:
    """What is wrong with one finished job's output, if anything."""
    problems = []
    dataset = spec.dataset
    train = {int(record) for record in dataset.train_indices}
    if len(result.labels) != spec.num_records:
        problems.append(f"{len(result.labels)} labels for {spec.num_records} records")
    if not set(result.labels) <= train:
        problems.append("labels for records outside the training pool")
    if any(not 0 <= int(label) < dataset.num_classes for label in result.labels.values()):
        problems.append("label outside the class range")
    kinds = [event.kind.value for event in events]
    if not kinds or kinds[0] != "run_started" or kinds[-1] != "run_finished":
        problems.append(f"event stream does not start and end a run: {kinds[:1]}..{kinds[-1:]}")
    if kinds.count("batch_completed") != len(result.batch_outcomes):
        problems.append("batch events disagree with the result's batches")
    return problems


def run_round(docs: Sequence[dict[str, Any]], problems: list[str]) -> Round:
    """Run the round's jobs through an Engine, one after another."""
    from repro import Engine, JobSpec

    finished: list[tuple[Any, Any, Any, Any]] = []
    started = now()
    with Engine(max_workers=1) as engine:
        for doc in docs:
            spec = JobSpec.from_dict(doc)
            job = engine.submit(spec)
            try:
                result = job.result(timeout=JOB_TIMEOUT_S)
            except Exception as error:  # a failed job is counted, not fatal
                problems.append(f"{spec.name}: {error!r}")
                finished.append((spec, None, None, []))
                continue
            finished.append((spec, result, job.stats(), job.events()))
    host_seconds = now() - started
    outcomes = []
    for spec, result, stats, events in finished:
        if result is None:
            outcomes.append(JobOutcome.failure(spec.name))
            continue
        wrong = job_problems(spec, result, events)
        problems.extend(f"{spec.name}: {problem}" for problem in wrong)
        outcomes.append(
            JobOutcome(
                name=spec.name,
                labels={int(r): int(label) for r, label in result.labels.items()},
                truth={int(r): int(spec.dataset.y[r]) for r in result.labels},
                sim_seconds=stats.sim_seconds,
                total_cost=stats.total_cost,
                counters=dict(stats.counters),
                batch_latencies=[
                    float(e.batch_latency) for e in events if e.kind.value == "batch_completed"
                ],
                events=len(events),
                failed=bool(wrong),
                model_accuracy=result.final_accuracy,
            )
        )
    return Round.of(outcomes, host_seconds)


def run(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
        docs: Sequence[dict[str, Any]] | None = None,
        min_beyond: int = common.MIN_BEYOND,
        setup_repeats: int = SETUP_REPEATS) -> Report:
    """One run of a simulation workload (``docs`` overrides the generated
    inputs, for the benchmark's own tests at tiny sizes)."""
    report = Report(workload, seed, trace)
    docs = list(docs if docs is not None else WORKLOADS[workload](seed))
    problems: list[str] = []

    def one_round() -> Round:
        round_ = run_round(docs, problems)
        report.attempted += round_.job_count
        report.failed += round_.failed_jobs
        return round_

    if not trace:
        setup = measure_setup(docs[0], setup_repeats)
        rounds = common.run_rounds(one_round, seconds, deadline, warmup=True)
        common.finish_end_to_end(report, rounds, setup, common.peak_rss_mb_self(), min_beyond)
    else:
        run_traced(report, one_round)
    report.check("jobs valid", not problems, "; ".join(problems[:3]) or "every job's output checked")
    return report


def run_traced(report: Report, one_round: Callable[[], Round]) -> None:
    """A warm-up round, an untraced reference round, then the same round
    traced."""
    from .tracer import PER_LAYER_UNITS, Tracer, layer_metrics

    one_round()
    untraced = one_round()
    tracer = Tracer()
    tracer.install()
    try:
        start_ns = time.perf_counter_ns()
        traced = one_round()
        end_ns = time.perf_counter_ns()
    finally:
        tracer.uninstall()
    trace = tracer.snapshot()
    trace.save(common.RESULTS_DIR / f"{report.workload}-seed{report.seed}-spans.json")
    values = layer_metrics(trace, untraced, traced, (start_ns, end_ns))
    common.finish_traced(report, untraced, traced, values, PER_LAYER_UNITS, trace)
