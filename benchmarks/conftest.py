"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation
(§6) on the simulated crowd substrate and prints the reproduced rows/series.
Run them with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the reproduced tables inline; without it they are
captured but the benchmark timings are still reported.  Absolute numbers are
not expected to match the paper (the substrate is a simulator, not MTurk);
the *shape* — who wins and by roughly what factor — is what each benchmark
reproduces.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import format_table


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are end-to-end simulations, so a single round is both
    representative and keeps the whole harness fast.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def report(title: str, headers: list[str], rows: list[list[object]]) -> None:
    """Print a reproduced table with a header line."""
    print(f"\n=== {title} ===")
    print(format_table(headers, rows))


@pytest.fixture(scope="session")
def seed():
    """A single seed shared by all benchmarks so results are reproducible."""
    return 0
