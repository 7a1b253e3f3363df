"""Shared pieces of the benchmark: paths, seeds, statistics, correctness
fingerprints, provenance and the result line.

Every workload produces :class:`JobOutcome` records for the jobs of one
*round* (a fixed, seed-determined set of jobs).  A run repeats rounds until
its time budget is spent; every round must reproduce the first round's
simulated fingerprint exactly, and the simulated (paper-level) metrics are
read from one round, so they are a pure function of the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform as host_platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; a run whose percentile has fewer fails.
MIN_BEYOND = 10

#: Consensus labels must agree with ground truth at least this often.  The
#: simulated workers are mostly accurate, so real runs sit near 0.9 with one
#: vote and above 0.95 with three; a run below the floor is labeling wrongly.
LABEL_ACCURACY_FLOOR = 0.85

#: The end-to-end metrics (reported with ``--trace 0``), name -> unit.  Every
#: workload reports every one of them.
END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "labels_per_s": "1/s",
    "jobs_per_s": "1/s",
    "batch_latency_p50_s": "s",
    "batch_latency_p90_s": "s",
    "cost_per_label_usd": "usd",
    "label_accuracy": "share",
    "peak_rss_mb": "MB",
}


class SourceTreeMissing(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def require_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or fail.

    The benchmark always measures the program in the checkout it runs from,
    never an installed copy, so a checkout without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters that import ``repro`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def sub_seed(seed: int, *path: object) -> int:
    """A stable 31-bit seed derived from the run seed and a path of labels."""
    text = json.dumps([seed, *path], sort_keys=True, default=str)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def now() -> float:
    """Host wall clock for measurements (monotonic, comparable across
    processes on the same Linux host)."""
    return time.perf_counter()


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 1]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass(frozen=True)
class Percentile:
    """A percentile with the evidence behind it."""

    value: float
    samples: int
    beyond: int

    def honest(self, min_beyond: int) -> bool:
        return self.beyond >= min_beyond


def percentile_of(values: Sequence[float], q: float) -> Percentile:
    value = percentile(values, q)
    return Percentile(
        value=value, samples=len(values), beyond=sum(1 for v in values if v > value)
    )


# ---------------------------------------------------------------------------
# job outcomes, rounds and fingerprints
# ---------------------------------------------------------------------------


@dataclass
class JobOutcome:
    """What one labeling job produced, as the benchmark observed it."""

    name: str
    labels: dict[int, int]
    truth: dict[int, int]
    sim_seconds: float
    total_cost: float
    counters: dict[str, float]
    batch_latencies: list[float]
    events: int
    failed: bool = False
    model_accuracy: Optional[float] = None

    @classmethod
    def failure(cls, name: str) -> "JobOutcome":
        """A job that produced nothing usable."""
        return cls(name, {}, {}, 0.0, 0.0, {}, [], 0, failed=True)

    @property
    def correct_labels(self) -> int:
        return sum(1 for record, label in self.labels.items() if self.truth.get(record) == label)


#: Platform counters that enter the fingerprint (the assignment ledger).
FINGERPRINT_COUNTERS = (
    "assignments_started",
    "assignments_completed",
    "assignments_terminated",
    "workers_replaced",
    "probes_attempted",
)


def fingerprint(jobs: Sequence[JobOutcome]) -> str:
    """Digest of everything simulated: labels, simulated seconds, cost and
    the assignment counters of every job, in job order."""
    payload = [
        {
            "labels": sorted(job.labels.items()),
            "sim_seconds": repr(float(job.sim_seconds)),
            "total_cost": repr(float(job.total_cost)),
            "counters": {
                key: repr(float(job.counters.get(key, 0.0)))
                for key in FINGERPRINT_COUNTERS
            },
        }
        for job in jobs
    ]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Round:
    """One round: a fixed job set, its host time, and what it produced."""

    jobs: list[JobOutcome]
    host_seconds: float
    job_count: int
    labels: int
    failed_jobs: int
    fingerprint: str
    #: Workload-specific host observations (request latencies, ...).
    observations: dict[str, Any] = field(default_factory=dict)
    #: Run before timing started; excluded from host-time metrics.
    warmup: bool = False

    @classmethod
    def of(cls, jobs: list[JobOutcome], host_seconds: float, **observations: Any) -> "Round":
        return cls(
            jobs=jobs,
            host_seconds=host_seconds,
            job_count=len(jobs),
            labels=sum(len(job.labels) for job in jobs),
            failed_jobs=sum(1 for job in jobs if job.failed),
            fingerprint=fingerprint(jobs),
            observations=observations,
        )


def run_rounds(
    run_round: Callable[[], Round],
    seconds: float,
    deadline: float,
    enough: Callable[[list[Round]], bool] = lambda rounds: True,
    warmup: bool = False,
) -> list[Round]:
    """Repeat ``run_round`` until ``seconds`` have passed and ``enough`` is
    satisfied; never start a round after ``deadline`` (an absolute
    :func:`now` reading), and always run at least one.

    With ``warmup``, one extra round runs first, so that lazy set-up and
    caches are done before timing; it is returned first, fingerprint-checked
    like the others and left out of host-time metrics.  Only the first round
    keeps its job outcomes (the simulated metrics are read from it); later
    rounds keep their fingerprint and counts, so memory does not grow with
    the number of rounds.
    """
    rounds: list[Round] = []
    if warmup:
        rounds.append(run_round())
        rounds[0].warmup = True
    started = now()
    while True:
        round_ = run_round()
        if rounds:
            round_.jobs = []
        rounds.append(round_)
        elapsed_ok = now() - started >= seconds
        if (elapsed_ok and enough(rounds)) or now() >= deadline:
            return rounds


def simulated_metrics(round_: Round) -> dict[str, Any]:
    """Paper-level metrics of one round (a pure function of the seed)."""
    latencies = [lat for job in round_.jobs for lat in job.batch_latencies]
    labels = round_.labels
    return {
        "batch_latency_p50_s": percentile_of(latencies, 0.50),
        "batch_latency_p90_s": percentile_of(latencies, 0.90),
        "cost_per_label_usd": sum(job.total_cost for job in round_.jobs) / labels,
        "label_accuracy": sum(job.correct_labels for job in round_.jobs) / labels,
    }


def ledger_check(kind: str, workload: str, seed: int, value: str) -> Optional[str]:
    """Compare ``value`` (a fingerprint or a digest of trace counts) with
    what an earlier run of the same workload, seed and sources recorded in
    this checkout, recording it if new.

    Returns the conflicting earlier value, or ``None`` when they agree (or
    nothing was recorded yet).
    """
    path = RESULTS_DIR / "ledger.json"
    key = f"{kind}:{workload}:{seed}:{source_digest()}"
    try:
        ledger = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        ledger = {}
    earlier = ledger.get(key)
    if earlier is not None:
        return None if earlier == value else earlier
    ledger[key] = value
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    pending = path.with_suffix(".tmp")
    pending.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(pending, path)
    return None


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def source_digest() -> str:
    """Content digest of the program's and the benchmark's Python sources
    (identity of the code measured, available even where the checkout is
    not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git(*args: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return host_platform.processor() or "unknown"


def provenance(seed: int) -> dict[str, Any]:
    """Where and on what a result was measured."""
    import numpy
    import scipy

    # Only a repository rooted at this checkout describes the code measured.
    toplevel = _git("rev-parse", "--show-toplevel")
    sha = _git("rev-parse", "HEAD") if toplevel and Path(toplevel).resolve() == ROOT else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": host_platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha or "unknown",
        "git_dirty": (bool(status) if status is not None else "unknown"),
        "source_digest": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the result
# ---------------------------------------------------------------------------


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    #: Sample count behind a percentile or a median, for the report.
    samples: Optional[int] = None
    note: str = ""


@dataclass
class Report:
    """Everything one run measured, checked and where it ran."""

    workload: str
    seed: int
    trace: bool
    metrics: list[Metric] = field(default_factory=list)
    #: Printed and saved, but not part of the result line (they do not
    #: apply to every workload).
    extras: list[Metric] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record a correctness check; a failed one counts as a failed
        operation."""
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def percentile(
        self, name: str, pct: Percentile, unit: str, min_beyond: int, extra: bool = False
    ) -> None:
        """Report a percentile with its sample count; too few samples
        beyond it fails the run."""
        self.check(
            f"{name} samples",
            pct.honest(min_beyond),
            f"{pct.beyond} of {pct.samples} samples beyond (need {min_beyond})",
        )
        (self.extras if extra else self.metrics).append(
            Metric(name, pct.value, unit, samples=pct.samples)
        )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)

    def result_line(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                metric.name: {"value": metric.value, "unit": metric.unit}
                for metric in self.metrics
            },
        }

    def emit(self) -> None:
        """Print the human-readable report, save the full record under
        ``results/``, and print the result line last."""
        lines = [f"perfbench {self.workload} seed={self.seed} trace={int(self.trace)}"]
        for key, value in self.info.items():
            lines.append(f"  {key}: {value}")
        for name, ok, detail in self.checks:
            lines.append(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
        error_rate = self.failed / max(1, self.attempted)
        lines.append(
            f"  error_rate: {error_rate:.6g} share ({self.failed} failed of "
            f"{self.attempted} attempted operations)"
        )
        for title, metrics in (("metrics", self.metrics), ("extras", self.extras)):
            if metrics:
                lines.append(f"  {title}:")
            for metric in metrics:
                samples = f"  n={metric.samples}" if metric.samples is not None else ""
                note = f"  ({metric.note})" if metric.note else ""
                lines.append(
                    f"    {metric.name:<34} {metric.value:>14.6g} {metric.unit}{samples}{note}"
                )
        print("\n".join(lines), flush=True)
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "result": self.result_line(),
            "error_rate": error_rate,
            "metrics": [vars(metric) for metric in self.metrics],
            "extras": [vars(metric) for metric in self.extras],
            "checks": self.checks,
            "info": self.info,
        }
        path = RESULTS_DIR / f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        path.write_text(json.dumps(record, indent=1, default=str))
        print(json.dumps(self.result_line()), flush=True)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# finishing a run
# ---------------------------------------------------------------------------


def check_rounds(report: Report, rounds: Sequence[Round]) -> None:
    """Every round reproduces the first round's fingerprint, and that
    fingerprint matches earlier runs of the same seed and source."""
    reference = rounds[0].fingerprint
    for index, round_ in enumerate(rounds[1:], start=1):
        report.check(
            f"round {index} fingerprint",
            round_.fingerprint == reference,
            f"{round_.fingerprint} vs round 0 {reference}",
        )
    earlier = ledger_check("fingerprint", report.workload, report.seed, reference)
    report.check(
        "fingerprint vs earlier runs",
        earlier is None,
        f"{reference}" + (f" vs earlier {earlier}" if earlier else " (consistent)"),
    )
    report.info["fingerprint"] = reference


def check_labels(report: Report, round_: Round) -> dict[str, Any]:
    """Consensus labels against ground truth; returns the simulated metrics."""
    simulated = simulated_metrics(round_)
    accuracy = simulated["label_accuracy"]
    report.check(
        "label accuracy",
        accuracy >= LABEL_ACCURACY_FLOOR,
        f"{accuracy:.4f} of {round_.labels} labels match ground truth "
        f"(floor {LABEL_ACCURACY_FLOOR})",
    )
    return simulated


def finish_end_to_end(
    report: Report,
    rounds: Sequence[Round],
    setup_seconds: Sequence[float],
    peak_rss_mb: float,
    min_beyond: int,
) -> None:
    """Fill in every end-to-end metric from an untraced run."""
    check_rounds(report, rounds)
    simulated = check_labels(report, rounds[0])
    timed = [r for r in rounds if not r.warmup]
    report.metrics.append(
        Metric("setup_s", median(setup_seconds), "s", samples=len(setup_seconds))
    )
    labels_per_s = median([r.labels / r.host_seconds for r in timed])
    report.metrics.append(
        Metric("labels_per_s", labels_per_s, "1/s", samples=len(timed), note="median over rounds")
    )
    # Every round has the same jobs and labels, so job throughput is label
    # throughput at the round's fixed labels-per-job ratio.
    report.metrics.append(
        Metric(
            "jobs_per_s",
            labels_per_s * rounds[0].job_count / rounds[0].labels,
            "1/s",
            samples=len(timed),
            note="labels_per_s at the round's jobs per label",
        )
    )
    for name in ("batch_latency_p50_s", "batch_latency_p90_s"):
        report.percentile(name, simulated[name], "s", min_beyond)
    report.metrics.append(Metric("cost_per_label_usd", simulated["cost_per_label_usd"], "usd"))
    report.metrics.append(Metric("label_accuracy", simulated["label_accuracy"], "share"))
    report.metrics.append(Metric("peak_rss_mb", peak_rss_mb, "MB"))
    accuracies = [job.model_accuracy for job in rounds[0].jobs if job.model_accuracy is not None]
    if accuracies:
        report.extras.append(
            Metric("model_accuracy", sum(accuracies) / len(accuracies), "share", samples=len(accuracies),
                   note="mean final test accuracy over the round's jobs")
        )
    report.info["rounds"] = (
        f"{len(timed)} timed of {rounds[0].job_count} jobs / {rounds[0].labels} labels, "
        f"host seconds {[round(r.host_seconds, 3) for r in timed]}"
        + (f", after a warm-up round of {rounds[0].host_seconds:.3f} s" if rounds[0].warmup else "")
    )
    assert [m.name for m in report.metrics] == list(END_TO_END_UNITS), "end-to-end metric set drifted"


def counts_digest(counts: dict[str, float]) -> str:
    text = json.dumps(sorted(counts.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def finish_traced(
    report: Report,
    untraced: Round,
    traced: Round,
    layer_values: dict[str, float],
    layer_units: dict[str, str],
    trace: Any,
) -> None:
    """Checks and metrics of a traced run: the traced round must simulate
    exactly what the untraced one did, and its count metrics must repeat
    exactly across traced runs of the same seed.  (Per-function call counts
    in the spans file need not: some depend on thread timing, e.g. a POST
    whose job already finished is answered with its result.)"""
    report.check(
        "traced fingerprint",
        traced.fingerprint == untraced.fingerprint,
        f"traced {traced.fingerprint} vs untraced {untraced.fingerprint}",
    )
    earlier = ledger_check("fingerprint", report.workload, report.seed, untraced.fingerprint)
    report.check(
        "fingerprint vs earlier runs",
        earlier is None,
        untraced.fingerprint + (f" vs earlier {earlier}" if earlier else " (consistent)"),
    )
    check_labels(report, traced)
    counts = {
        name: value for name, value in layer_values.items() if layer_units[name].startswith("count")
    }
    digest = counts_digest(counts)
    earlier = ledger_check("trace-counts", report.workload, report.seed, digest)
    report.check(
        "trace counts vs earlier traced runs",
        earlier is None,
        digest + (f" vs earlier {earlier}" if earlier else " (consistent)"),
    )
    for name, unit in layer_units.items():
        report.metrics.append(Metric(name, layer_values[name], unit))
    report.info["fingerprint"] = untraced.fingerprint
    report.info["rounds"] = (
        f"untraced {untraced.host_seconds:.3f} s, traced {traced.host_seconds:.3f} s "
        f"({traced.job_count} jobs / {traced.labels} labels)"
    )
    report.info["spans"] = (
        f"{len(trace.spans)} span records, {len(trace.agg)} timed functions, "
        f"wrapper cost per call {trace.wrapper_cost_ns} ns"
    )
    report.info["top self ms"] = trace.top_self_ms()
