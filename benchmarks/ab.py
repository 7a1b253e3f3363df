"""A/B host-time comparison of two revisions with perfbench.

Usage, from the root of a checkout::

    python benchmarks/ab.py --workload sim_tail --parent HEAD~1 --change HEAD \
        [--pairs 10] [--seed 1]

Both revisions are checked out as ``git worktree``s in a temporary directory
(removed afterwards).  Pair ``i`` runs ``perfbench/run.py --workload W --seed
S+i --seconds <run_seconds> --trace 0`` once in each worktree, with the
command and ``run_seconds`` read from ``BENCHMARK.json``; even pairs run the
parent first, odd pairs the change, so drift in the host's load hits both
sides alike.  The last JSON line of each run is its result.

For every metric ``BENCHMARK.json`` declares, the report gives each side's
median, quartile spread and min/max, and the pairs the change won, lost and
tied (``better`` decides the direction; a tie counts for neither side).  The
exit status is 1 when any run was incorrect (``correct: false``), failed
operations (``failed > 0``) or printed no result.  ``BENCHMARK.json`` is
only read, never edited.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

#: One perfbench result line: ``correct``, ``failed`` and ``metrics``.
Run = Mapping[str, Any]


@dataclass(frozen=True)
class Spread:
    """Median, quartiles and range of one side's values."""

    median: float
    q1: float
    q3: float
    low: float
    high: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Spread":
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = q3 = values[0]
        return cls(statistics.median(values), q1, q3, min(values), max(values))

    def __str__(self) -> str:
        return (
            f"{self.median:.6g} [{self.q1:.6g}, {self.q3:.6g}] "
            f"{self.low:.6g}..{self.high:.6g}"
        )


@dataclass(frozen=True)
class MetricSummary:
    """One metric over all pairs."""

    name: str
    better: str
    parent: Spread
    change: Spread
    won: int
    lost: int
    tied: int

    def __str__(self) -> str:
        return (
            f"{self.name} ({self.better} is better)\n"
            f"  parent {self.parent}\n"
            f"  change {self.change}\n"
            f"  change won {self.won}, lost {self.lost}, tied {self.tied}"
        )


def problems(pairs: Sequence[tuple[Run, Run]]) -> list[str]:
    """One line per run that was incorrect, failed operations or gave no result."""
    found = []
    for index, pair in enumerate(pairs):
        for side, run in zip(("parent", "change"), pair):
            if not run.get("correct") or run.get("failed", 1) > 0:
                found.append(
                    f"pair {index} {side}: correct={run.get('correct')} "
                    f"failed={run.get('failed')} {run.get('error', '')}".rstrip()
                )
    return found


def summarize(
    pairs: Sequence[tuple[Run, Run]], better: Mapping[str, str]
) -> list[MetricSummary]:
    """Summaries of every declared metric that every run reported."""
    summaries = []
    for name, direction in better.items():
        if not all(name in run.get("metrics", {}) for pair in pairs for run in pair):
            continue
        values = [
            tuple(float(run["metrics"][name]["value"]) for run in pair)
            for pair in pairs
        ]
        sign = 1 if direction == "higher" else -1
        won = sum(1 for old, new in values if sign * (new - old) > 0)
        lost = sum(1 for old, new in values if sign * (new - old) < 0)
        summaries.append(
            MetricSummary(
                name=name,
                better=direction,
                parent=Spread.of([old for old, _ in values]),
                change=Spread.of([new for _, new in values]),
                won=won,
                lost=lost,
                tied=len(values) - won - lost,
            )
        )
    return summaries


def _perfbench(
    tree: Path, command: Sequence[str], workload: str, seed: int, seconds: float
) -> dict[str, Any]:
    completed = subprocess.run(
        [
            *command,
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = completed.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"correct": False, "failed": 1, "metrics": {}, "error": tail[0]}


def _git(*args: str) -> None:
    subprocess.run(["git", *args], cwd=REPO_ROOT, check=True, capture_output=True)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--change", required=True, help="git revision under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    better = {
        metric["name"]: metric["better"]
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    pairs: list[tuple[Run, Run]] = []
    with tempfile.TemporaryDirectory(prefix="repro-ab-") as scratch:
        trees = {side: Path(scratch) / side for side in ("parent", "change")}
        try:
            for side, tree in trees.items():
                _git("worktree", "add", "--detach", str(tree), getattr(args, side))
            for index in range(args.pairs):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                runs = {
                    side: _perfbench(
                        trees[side],
                        benchmark["command"],
                        args.workload,
                        args.seed + index,
                        benchmark["run_seconds"],
                    )
                    for side in order
                }
                pairs.append((runs["parent"], runs["change"]))
                print(f"pair {index + 1}/{args.pairs} done", file=sys.stderr)
        finally:
            for tree in trees.values():
                if tree.exists():
                    _git("worktree", "remove", "--force", str(tree))
            _git("worktree", "prune")

    print(
        f"{args.workload}: {args.change} (change) vs {args.parent} (parent), "
        f"{args.pairs} pairs from seed {args.seed}"
    )
    for summary in summarize(pairs, better):
        print(summary)
    found = problems(pairs)
    for line in found:
        print(f"INCORRECT: {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
