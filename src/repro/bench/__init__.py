"""repro.bench — the deterministic behaviour gate.

CLAMShell's claims are about latency and cost in a deterministic simulator,
so what CI can gate honestly is the simulated outcome, not how fast the host
ran it.  This package runs named workloads (registered in
:mod:`repro.bench.workloads`), writes a ``BENCH_<workload>.json`` document
that is a pure function of (workload, seed, params), and compares documents
field for field so CI fails on any change in simulated behaviour.  Host time
is measured by ``perfbench/`` instead.

Quickstart::

    from repro.bench import run_benchmark, write_result, compare_files

    result = run_benchmark("scale", seed=0, repeat=2)
    write_result(result, "BENCH_scale.json")
    report = compare_files("benchmarks/baselines/BENCH_scale.json",
                           "BENCH_scale.json")
    assert report.passed

or from the command line::

    repro bench scale --json BENCH_scale.json
    repro bench compare benchmarks/baselines/BENCH_scale.json BENCH_scale.json
"""

from .compare import ComparisonReport, compare_documents, compare_files
from .registry import (
    WorkloadOutcome,
    WorkloadSpec,
    available_workloads,
    get_workload,
    register_workload,
    workload_specs,
)
from .runner import (
    SCHEMA_VERSION,
    BenchmarkResult,
    default_json_path,
    load_result,
    run_benchmark,
    validate_document,
    write_result,
)

__all__ = [
    "BenchmarkResult",
    "ComparisonReport",
    "SCHEMA_VERSION",
    "WorkloadOutcome",
    "WorkloadSpec",
    "available_workloads",
    "compare_documents",
    "compare_files",
    "default_json_path",
    "get_workload",
    "load_result",
    "register_workload",
    "run_benchmark",
    "validate_document",
    "workload_specs",
    "write_result",
]
