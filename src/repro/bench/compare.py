"""Scripted comparison of two benchmark JSON documents.

This is the piece CI calls (``repro bench compare baseline.json current.json``)
so that a behaviour change fails the build by exit code.  Policy:

* the two documents must describe the same workload and seed (hard error
  otherwise: their outcomes are not comparable);
* every outcome field (:data:`~repro.bench.runner.OUTCOME_KEYS`) must be
  equal, and each field that differs is one ``MISMATCH`` line;
* ``params`` are not compared, so a run with a different but
  behaviour-preserving setting (the scan oracle's ``use_index=false``, the
  process executor) can be checked against the default run's baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Union

from .runner import OUTCOME_KEYS, load_result


@dataclass
class ComparisonReport:
    """Outcome of comparing a current benchmark run against a baseline."""

    workload: str
    #: One ``MISMATCH`` line per outcome field that differs.
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.messages

    def summary_lines(self) -> list[str]:
        verdict = "PASS" if self.passed else "FAIL"
        return [
            f"workload:          {self.workload}",
            *self.messages,
            f"verdict:           {verdict}",
        ]


def compare_documents(
    baseline: Mapping[str, Any], current: Mapping[str, Any]
) -> ComparisonReport:
    """Compare two schema-valid benchmark documents (see module docstring)."""
    for key in ("workload", "seed"):
        if baseline[key] != current[key]:
            raise ValueError(
                f"cannot compare documents with different {key}s: baseline is "
                f"{baseline[key]!r}, current is {current[key]!r}"
            )
    report = ComparisonReport(workload=str(baseline["workload"]))
    for key in OUTCOME_KEYS:
        if baseline[key] != current[key]:
            report.messages.append(
                f"MISMATCH: {key}: {_difference(baseline[key], current[key])}"
            )
    return report


def compare_files(
    baseline_path: Union[str, Path], current_path: Union[str, Path]
) -> ComparisonReport:
    """Load, validate, and compare two ``BENCH_*.json`` files."""
    return compare_documents(load_result(baseline_path), load_result(current_path))


def _difference(old: Any, new: Any) -> str:
    """``old -> new``, narrowed to the differing keys when both are objects."""
    if isinstance(old, Mapping) and isinstance(new, Mapping):
        return ", ".join(
            f"{key} {old.get(key, '<absent>')!r} -> {new.get(key, '<absent>')!r}"
            for key in sorted(set(old) | set(new))
            if key not in old or key not in new or old[key] != new[key]
        )
    return f"{old!r} -> {new!r}"
