"""``service_mix``: the HTTP/SSE service under two closed-loop clients.

The server is ``repro serve --port 0 --max-workers 2`` in its own process
(thread executor).  This process is the load generator: two client threads,
each a closed loop over its share of the round's jobs.  One job's cycle is

    POST /jobs -> GET /jobs/{id}/events (the whole SSE stream)
    -> GET /jobs/{id}/labels, page by page -> GET /jobs/{id} -> DELETE /jobs/{id}

Every failure is counted against the attempts and the client moves on:
non-2xx responses, connection errors and timeouts, and in-band
``job_failed`` frames.  An SSE body is parsed only after its status is 200.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from . import common
from .common import JobOutcome, Metric, Report, Round, now, sub_seed

CLIENTS = 2
SERVER_WORKERS = 2
#: Jobs per round: enough for an honest p90 of job latency (100 jobs) in one
#: round.  A job makes 5 non-streaming requests, so the 1,000 requests an
#: honest p99 needs come from the rounds a run repeats.
JOBS_PER_ROUND = 120
RECORDS_PER_JOB = 30
#: The page size of the repo's own client, ``repro.service.loadgen.run_load``:
#: 30 labels take two pages.
PAGE_LIMIT = 25
POPULATION_SEED = 7000
SETUP_REPEATS = 3
MIN_JOBS = 100
MIN_REQUESTS = 1000
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0

#: Non-streaming routes, by the LabelingService method that handles them.
ROUTES = ("submit", "labels_page", "get_job", "delete")


def service_docs(seed: int, jobs: int = JOBS_PER_ROUND) -> list[dict[str, Any]]:
    """Small labeling-only jobs: tens of records, pool 6, seeded per job."""
    docs = []
    for index in range(jobs):
        job_seed = sub_seed(seed, "service_mix", index)
        docs.append(
            {
                "dataset": {
                    "generator": "labeling_workload",
                    "params": {"num_records": 2 * RECORDS_PER_JOB, "seed": job_seed},
                },
                "config": {
                    "pool_size": 6,
                    "straggler_mitigation": True,
                    "max_extra_assignments": 2,
                    "maintenance_threshold": None,
                    "learning_strategy": "none",
                    "seed": job_seed,
                },
                "population": {"factory": "mixed_speed", "seed": POPULATION_SEED + index},
                "num_records": RECORDS_PER_JOB,
                "name": f"service_mix-{index}",
            }
        )
    return docs


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class Server:
    """One server process; ``start`` returns its set-up time."""

    def __init__(self, trace_out: Optional[Path] = None) -> None:
        self.trace_out = trace_out
        self.process: Optional[subprocess.Popen[str]] = None
        self.port = 0

    def start(self) -> float:
        """Spawn the server and wait until ``/healthz`` answers 200; returns
        the seconds from spawning to that answer."""
        if self.trace_out is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(Path(__file__).with_name("traced_serve.py")),
                       "--trace-out", str(self.trace_out)]
        command += ["--port", "0", "--max-workers", str(SERVER_WORKERS)]
        started = now()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=common.ROOT, env=common.child_env()
        )
        assert self.process.stdout is not None
        line = self.process.stdout.readline().strip()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start (said {line!r})")
        self.port = int(line.rsplit(":", 1)[1])
        while now() - started < START_TIMEOUT_S:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    if response.status == 200:
                        return now() - started
                finally:
                    conn.close()
            except OSError:
                pass
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("server never answered /healthz")

    def peak_rss_mb(self) -> float:
        assert self.process is not None
        return common.peak_rss_mb_pid(self.process.pid)

    def stop(self) -> None:
        """Interrupt the server (it shuts down gracefully) and wait for it."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()


# ---------------------------------------------------------------------------
# the load generator
# ---------------------------------------------------------------------------


@dataclass
class Exchange:
    """One request as a client observed it."""

    route: str
    ms: float
    ok: bool
    detail: str = ""


@dataclass
class ClientLog:
    exchanges: list[Exchange] = field(default_factory=list)
    job_ms: list[float] = field(default_factory=list)
    #: In-band failures (job_failed frames) and invalid job outputs.
    job_failures: list[str] = field(default_factory=list)
    outcomes: dict[int, JobOutcome] = field(default_factory=dict)


class Client:
    """One closed-loop client over a keep-alive connection."""

    def __init__(self, port: int, log: ClientLog) -> None:
        self.port = port
        self.log = log
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, route: str, body: Any = None) -> Optional[Any]:
        """One non-streaming request; returns the decoded 2xx body, or
        ``None`` after recording the failure."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        started = now()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.close()
            self.log.exchanges.append(Exchange(route, 1000 * (now() - started), False, repr(error)))
            return None
        elapsed_ms = 1000 * (now() - started)
        if not 200 <= response.status < 300:
            self.log.exchanges.append(Exchange(route, elapsed_ms, False, f"HTTP {response.status}"))
            return None
        try:
            document = json.loads(raw)
        except ValueError as error:
            self.log.exchanges.append(Exchange(route, elapsed_ms, False, repr(error)))
            return None
        self.log.exchanges.append(Exchange(route, elapsed_ms, True))
        return document

    def close(self) -> None:
        """Close the keep-alive connection (a later request reopens it)."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def stream(self, job_id: str) -> Optional[list[dict[str, Any]]]:
        """Read a job's whole SSE stream on a connection of its own; the
        frames, or ``None`` after recording the failure."""
        started = now()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                response.read()
                self.log.exchanges.append(
                    Exchange("events", 1000 * (now() - started), False, f"HTTP {response.status}")
                )
                return None
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.log.exchanges.append(Exchange("events", 1000 * (now() - started), False, repr(error)))
            return None
        finally:
            conn.close()
        self.log.exchanges.append(Exchange("events", 1000 * (now() - started), True))
        frames = []
        for chunk in raw.decode("utf-8").split("\n\n"):
            data = [line[len("data: "):] for line in chunk.splitlines() if line.startswith("data: ")]
            if data:
                frames.append(json.loads("\n".join(data)))
        return frames

    def cycle(self, index: int, doc: dict[str, Any], truth: dict[int, int], train: set[int]) -> None:
        """One job, end to end; records its outcome under ``index``."""
        started = now()
        created = self.request("POST", "/jobs", "submit", body=doc)
        if created is None:
            return
        job_id = created["id"]
        frames = self.stream(job_id)
        if frames is not None:
            self.log.job_ms.append(1000 * (now() - started))
        labels: dict[int, int] = {}
        offset, total = 0, None
        while total is None or offset < total:
            page = self.request(
                "GET", f"/jobs/{job_id}/labels?offset={offset}&limit={PAGE_LIMIT}", "labels_page"
            )
            if page is None or not page["labels"]:
                break
            total = page["total"]
            labels.update((int(record), int(label)) for record, label in page["labels"])
            offset += len(page["labels"])
        summary = self.request("GET", f"/jobs/{job_id}", "get_job")
        self.request("DELETE", f"/jobs/{job_id}", "delete")
        if frames is None or summary is None:
            return
        problems = job_problems(doc, frames, summary, labels, train)
        self.log.job_failures.extend(f"{doc['name']}: {problem}" for problem in problems)
        stats = summary.get("stats") or {}
        self.log.outcomes[index] = JobOutcome(
            name=doc["name"],
            labels=labels,
            truth={record: truth[record] for record in labels if record in truth},
            sim_seconds=float(stats.get("sim_seconds", 0.0)),
            total_cost=float(stats.get("total_cost", 0.0)),
            counters=dict(stats.get("counters", {})),
            batch_latencies=[
                float(frame["batch_latency"]) for frame in frames if frame.get("kind") == "batch_completed"
            ],
            events=len(frames),
            failed=bool(problems),
        )


def job_problems(
    doc: dict[str, Any],
    frames: Sequence[dict[str, Any]],
    summary: dict[str, Any],
    labels: dict[int, int],
    train: set[int],
) -> list[str]:
    """What is wrong with one job as the client saw it, if anything."""
    problems = []
    kinds = [frame.get("kind") for frame in frames]
    if "job_failed" in kinds:
        problems.append(f"job_failed frame: {frames[kinds.index('job_failed')].get('error')}")
    if not kinds or kinds[0] != "run_started" or kinds[-1] != "run_finished":
        problems.append(f"SSE stream does not start and end a run: {kinds[:1]}..{kinds[-1:]}")
    if summary.get("status") != "succeeded":
        problems.append(f"status {summary.get('status')!r}")
    result = summary.get("result") or {}
    if kinds.count("batch_completed") != result.get("num_batches"):
        problems.append("batch frames disagree with the result's batches")
    if len(labels) != doc["num_records"] or not set(labels) <= train:
        problems.append(f"{len(labels)} labels paged for {doc['num_records']} records")
    return problems


@dataclass(frozen=True)
class JobInput:
    doc: dict[str, Any]
    truth: dict[int, int]
    train: set[int]


def job_inputs(docs: Sequence[dict[str, Any]]) -> list[JobInput]:
    """Ground truth for each job, from the same dataset recipe it carries."""
    from repro.api.wire import dataset_from_dict

    inputs = []
    for doc in docs:
        dataset = dataset_from_dict(doc["dataset"])
        train = {int(record) for record in dataset.train_indices}
        truth = {record: int(dataset.y[record]) for record in train}
        inputs.append(JobInput(doc, truth, train))
    return inputs


def run_round(port: int, inputs: Sequence[JobInput], clients: int = CLIENTS) -> Round:
    """Drive one round: client ``c`` runs jobs ``c, c + clients, ...``."""
    logs = [ClientLog() for _ in range(clients)]

    def drive(client_index: int) -> None:
        client = Client(port, logs[client_index])
        try:
            for index in range(client_index, len(inputs), clients):
                item = inputs[index]
                client.cycle(index, item.doc, item.truth, item.train)
        finally:
            client.close()

    threads = [
        threading.Thread(target=drive, args=(index,), name=f"perfbench-client-{index}")
        for index in range(clients)
    ]
    started = now()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    host_seconds = now() - started
    outcomes: dict[int, JobOutcome] = {}
    for log in logs:
        outcomes.update(log.outcomes)
    jobs = [
        outcomes.get(index) or JobOutcome.failure(item.doc["name"])
        for index, item in enumerate(inputs)
    ]
    return Round.of(
        jobs,
        host_seconds,
        exchanges=[exchange for log in logs for exchange in log.exchanges],
        job_ms=[ms for log in logs for ms in log.job_ms],
        job_failures=[failure for log in logs for failure in log.job_failures],
    )


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


def account(report: Report, round_: Round) -> None:
    """Count a round's requests and in-band failures against its attempts."""
    exchanges = round_.observations["exchanges"]
    failures = round_.observations["job_failures"]
    failed = [f"{e.route}: {e.detail}" for e in exchanges if not e.ok] + failures
    report.attempted += len(exchanges)
    report.failed += len(failed)
    if failed:
        report.info.setdefault("failures", []).extend(failed[:5])


def run(seed: int, seconds: float, trace: bool, deadline: float,
        docs: Sequence[dict[str, Any]] | None = None,
        min_beyond: int = common.MIN_BEYOND,
        setup_repeats: int = SETUP_REPEATS,
        min_jobs: int = MIN_JOBS,
        min_requests: int = MIN_REQUESTS) -> Report:
    """One run of ``service_mix`` (``docs`` overrides the generated inputs,
    for the benchmark's own tests at tiny sizes)."""
    report = Report("service_mix", seed, trace)
    inputs = job_inputs(docs if docs is not None else service_docs(seed))
    if not trace:
        run_end_to_end(report, inputs, seconds, deadline, min_beyond, setup_repeats, min_jobs, min_requests)
    else:
        run_traced(report, inputs, min_beyond)
    return report


def run_end_to_end(report: Report, inputs: Sequence[JobInput], seconds: float, deadline: float,
                   min_beyond: int, setup_repeats: int, min_jobs: int, min_requests: int) -> None:
    """Set-up time, then rounds against one server until the time budget
    and the minimum sample counts are met."""
    setup: list[float] = []
    server = Server()
    try:
        for attempt in range(setup_repeats):
            if attempt:
                server.stop()
            setup.append(server.start())

        def one_round() -> Round:
            round_ = run_round(server.port, inputs)
            account(report, round_)
            return round_

        def enough(rounds: list[Round]) -> bool:
            jobs = sum(len(r.observations["job_ms"]) for r in rounds)
            requests = sum(
                1 for r in rounds for e in r.observations["exchanges"] if e.route != "events"
            )
            return jobs >= min_jobs and requests >= min_requests

        rounds = common.run_rounds(one_round, seconds, deadline, enough)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    common.finish_end_to_end(report, rounds, setup, peak_rss, min_beyond)
    job_ms = [ms for r in rounds for ms in r.observations["job_ms"]]
    request_ms = [
        e.ms for r in rounds for e in r.observations["exchanges"] if e.route != "events" and e.ok
    ]
    for name, values, q in (
        ("job_p50_ms", job_ms, 0.50),
        ("job_p90_ms", job_ms, 0.90),
        ("request_p50_ms", request_ms, 0.50),
        ("request_p99_ms", request_ms, 0.99),
    ):
        if values:
            report.percentile(name, common.percentile_of(values, q), "ms", min_beyond, extra=True)
        else:
            report.check(f"{name} samples", False, "no successful samples")


def split_request_latency(report: Report, values: dict[str, float], trace: Any, traced: Round) -> None:
    """Split client-observed request latency into time inside the
    ``LabelingService`` handler and the rest (transport: HTTP parsing,
    JSON encoding, socket writes and waits)."""
    exchanges = [e for e in traced.observations["exchanges"] if e.ok]
    client_total = handler_total = 0.0
    requests = 0
    for route in ROUTES:
        client_ms = [e.ms for e in exchanges if e.route == route]
        handler = trace.calls("service", f"LabelingService.{route}")
        handler_ms = trace.mean_ms("service", f"LabelingService.{route}")
        client_total += sum(client_ms)
        handler_total += handler * handler_ms
        requests += len(client_ms)
        values[f"service.handler_share.{route}"] = handler * handler_ms / sum(client_ms) if client_ms else 0.0
        report.extras.append(Metric(f"service.handler_ms.{route}", handler_ms, "ms", samples=handler,
                                    note="mean time inside the handler"))
        report.extras.append(Metric(f"service.request_ms.{route}", sum(client_ms) / max(1, len(client_ms)), "ms",
                                    samples=len(client_ms), note="mean client-observed latency"))
    values["service.transport_share"] = (client_total - handler_total) / client_total
    values["service.sse_frames_per_job"] = (
        trace.counts.get("service:LabelingService.events[item]", 0) / len(traced.jobs)
    )
    report.extras.append(Metric("service.transport_ms", (client_total - handler_total) / requests, "ms",
                                samples=requests, note="mean client latency minus handler time, non-streaming"))


def run_traced(report: Report, inputs: Sequence[JobInput], min_beyond: int) -> None:
    """An untraced round against ``repro serve``, then the same round
    against a server started through the benchmark's traced entry point."""
    from .tracer import PER_LAYER_UNITS, TraceData, layer_metrics

    plain = Server()
    try:
        plain.start()
        untraced = run_round(plain.port, inputs)
        account(report, untraced)
    finally:
        plain.stop()
    trace_path = common.RESULTS_DIR / f"service_mix-seed{report.seed}-spans.json"
    trace_path.unlink(missing_ok=True)
    traced_server = Server(trace_out=trace_path)
    try:
        traced_server.start()
        start_ns = time.perf_counter_ns()
        traced = run_round(traced_server.port, inputs)
        end_ns = time.perf_counter_ns()
        account(report, traced)
    finally:
        traced_server.stop()
    trace = TraceData.load(trace_path)
    values = layer_metrics(trace, untraced, traced, (start_ns, end_ns))
    split_request_latency(report, values, trace, traced)
    waits_ms = [ns / 1e6 for ns in trace.queue_waits_ns]
    for name, q in (("engine.queue_wait_p50_ms", 0.50), ("engine.queue_wait_p90_ms", 0.90)):
        report.percentile(name, common.percentile_of(waits_ms, q), "ms", min_beyond, extra=True)
    common.finish_traced(report, untraced, traced, values, PER_LAYER_UNITS, trace)
