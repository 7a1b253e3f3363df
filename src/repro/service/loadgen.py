"""Concurrent-client load generator for the HTTP service.

Drives a live server the way real clients would — ``http.client`` over
TCP, one thread per client, each client submitting jobs and then following
them through every read endpoint (SSE event stream, paginated labels,
final status).  The ``service`` bench workload wraps this to produce
``BENCH_service.json``; everything the report counts, like the outcome of
the driven jobs, is a pure function of the submitted documents.  The
client takes no timings: host time is measured by ``perfbench/``.

Any client-side failure (non-2xx response, connection error) fails the run:
a load report with silently dropped requests would undercount exactly when
the service misbehaves.
"""

from __future__ import annotations

import http.client
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence


@dataclass
class _ClientTrace:
    """One client thread's observations (merged after join)."""

    job_ids: list[str] = field(default_factory=list)
    requests: int = 0
    events_streamed: int = 0
    error: Optional[BaseException] = None


@dataclass(frozen=True)
class LoadReport:
    """What N concurrent clients observed against the service."""

    #: Submitted job ids, client-major then submission order — deterministic,
    #: so callers can look the jobs up for simulator-side stats.
    job_ids: list[str]
    #: HTTP requests made, SSE streams included.
    requests: int
    #: SSE frames read, summed over every job's stream.
    events_streamed: int


def run_load(
    host: str,
    port: int,
    payloads: Sequence[Sequence[Mapping[str, Any]]],
    page_limit: int = 25,
) -> LoadReport:
    """Run one client thread per entry of ``payloads`` and merge the traces.

    ``payloads[c][j]`` is the wire document client ``c`` submits as its
    ``j``-th job.  Each job is followed end to end: POST, full SSE stream,
    labels paged ``page_limit`` at a time, final status GET.
    """
    traces = [_ClientTrace() for _ in payloads]
    threads = [
        threading.Thread(
            target=_drive_client,
            args=(host, port, client_payloads, page_limit, trace),
            name=f"repro-loadgen-{index}",
        )
        for index, (client_payloads, trace) in enumerate(zip(payloads, traces))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for trace in traces:
        if trace.error is not None:
            raise RuntimeError("load-generation client failed") from trace.error
    return LoadReport(
        job_ids=[job_id for trace in traces for job_id in trace.job_ids],
        requests=sum(trace.requests for trace in traces),
        events_streamed=sum(trace.events_streamed for trace in traces),
    )


def _drive_client(
    host: str,
    port: int,
    payloads: Sequence[Mapping[str, Any]],
    page_limit: int,
    trace: _ClientTrace,
) -> None:
    try:
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            for payload in payloads:
                job_id = _request_json(conn, "POST", "/jobs", trace, body=payload)["id"]
                trace.job_ids.append(job_id)
                trace.events_streamed += _stream_events(host, port, job_id, trace)
                fetched = 0
                total = 1
                while fetched < total:
                    page = _request_json(
                        conn,
                        "GET",
                        f"/jobs/{job_id}/labels?offset={fetched}&limit={page_limit}",
                        trace,
                    )
                    total = page["total"]
                    if not page["labels"]:
                        break
                    fetched += len(page["labels"])
                _request_json(conn, "GET", f"/jobs/{job_id}", trace)
        finally:
            conn.close()
    except BaseException as error:
        trace.error = error


def _request_json(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    trace: _ClientTrace,
    body: Optional[Mapping[str, Any]] = None,
) -> Any:
    payload = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    trace.requests += 1
    document = json.loads(raw)
    if response.status >= 400:
        raise RuntimeError(f"{method} {path} -> HTTP {response.status}: {document}")
    return document


def _stream_events(
    host: str, port: int, job_id: str, trace: _ClientTrace
) -> int:
    """Consume a job's whole SSE stream; returns the number of frames.

    The server delimits the stream by closing the connection, so this uses
    a dedicated connection and reads to EOF.
    """
    conn = http.client.HTTPConnection(host, port, timeout=600)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            raise RuntimeError(
                f"GET /jobs/{job_id}/events -> HTTP {response.status}"
            )
        raw = response.read()
    finally:
        conn.close()
    trace.requests += 1
    frames = [chunk for chunk in raw.decode("utf-8").split("\n\n") if chunk.strip()]
    return len(frames)
