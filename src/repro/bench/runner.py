"""Benchmark execution and the stable ``BENCH_<workload>.json`` schema.

The runner executes a registered workload ``repeat`` times, checks that every
repeat produced the same outcome (the determinism contract), and serialises
it.  A document is a pure function of (workload, seed, params) — it carries
no wall time, host or provenance stamp — so regenerating it reproduces the
file byte for byte:

.. code-block:: json

    {
      "schema_version": 2,
      "workload": "scale",
      "seed": 0,
      "params": {"sweep": [[25, 1000], [50, 2000], [100, 4000]]},
      "sim_seconds": 51234.5,
      "events_processed": 7000,
      "labels": 7000,
      "cost": {"total_dollars": 312.4, "records_labeled_paid": 9100, ...},
      "dispatch": {"probes_attempted": 21000, "probes_futile": 96},
      "details": {...}
    }

Host time is not measured here; ``perfbench/`` owns it.  ``schema_version``
is bumped on any incompatible change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from .registry import WorkloadOutcome, get_workload

#: Version of the ``BENCH_*.json`` schema produced by this module.
SCHEMA_VERSION = 2

#: The simulated outcome of a run: the fields the runner's repeat check and
#: the comparator require to be equal.
OUTCOME_KEYS = (
    "sim_seconds",
    "events_processed",
    "labels",
    "cost",
    "dispatch",
    "details",
)

#: Keys every schema-valid benchmark JSON must contain.
REQUIRED_KEYS = ("schema_version", "workload", "seed", "params") + OUTCOME_KEYS


def outcome_fields(document: Mapping[str, Any]) -> dict[str, Any]:
    """The outcome section of a benchmark document (see :data:`OUTCOME_KEYS`)."""
    return {key: document[key] for key in OUTCOME_KEYS}


@dataclass(frozen=True)
class BenchmarkResult:
    """One workload's outcome, ready to serialise."""

    workload: str
    seed: int
    params: dict[str, Any]
    outcome: WorkloadOutcome

    def to_dict(self) -> dict[str, Any]:
        """The stable JSON document (see module docstring)."""
        counters = self.outcome.counters
        # Dispatch-probe counters count the dispatch loop's work, not
        # anything the crowd is paid for, so they get their own section.
        cost = {"total_dollars": round(self.outcome.cost, 6)}
        cost.update(
            {
                key: counters[key]
                for key in sorted(counters)
                if not key.startswith("probes_")
            }
        )
        dispatch = {
            key: counters[key] for key in sorted(counters) if key.startswith("probes_")
        }
        return {
            "schema_version": SCHEMA_VERSION,
            "workload": self.workload,
            "seed": self.seed,
            "params": _jsonable(self.params),
            "sim_seconds": round(self.outcome.sim_seconds, 6),
            "events_processed": self.outcome.events_processed,
            "labels": self.outcome.labels,
            "cost": cost,
            "dispatch": dispatch,
            "details": _jsonable(self.outcome.details),
        }

    def summary_lines(self) -> list[str]:
        """Human-readable summary printed by the CLI."""
        return [
            f"workload:          {self.workload} (seed={self.seed})",
            f"events processed:  {self.outcome.events_processed}",
            f"labels:            {self.outcome.labels}",
            f"sim seconds:       {self.outcome.sim_seconds:,.1f}",
            f"total cost:        ${self.outcome.cost:,.2f}",
            "dispatch probes:   "
            f"{self.outcome.counters.get('probes_attempted', 0):,.0f} attempted, "
            f"{self.outcome.counters.get('probes_futile', 0):,.0f} futile",
        ]


def run_benchmark(
    name: str,
    seed: int = 0,
    repeat: int = 1,
    params: Optional[Mapping[str, Any]] = None,
) -> BenchmarkResult:
    """Execute workload ``name`` ``repeat`` times and return its outcome.

    Every repeat's outcome fields must equal the first one's; a mismatch
    raises ``RuntimeError`` because a nondeterministic workload cannot back
    a behaviour gate.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    spec = get_workload(name)
    params = dict(params or {})
    recorded_params = {**spec.defaults, **params}

    def run_once() -> BenchmarkResult:
        return BenchmarkResult(
            workload=name,
            seed=seed,
            params=recorded_params,
            outcome=spec.execute(seed=seed, **params),
        )

    result = run_once()
    first = outcome_fields(result.to_dict())
    for index in range(2, repeat + 1):
        if outcome_fields(run_once().to_dict()) != first:
            raise RuntimeError(
                f"workload {name!r} is nondeterministic: repeat {index} "
                f"produced a different outcome for seed {seed}"
            )
    return result


def write_result(result: BenchmarkResult, path: Union[str, Path]) -> Path:
    """Serialise ``result`` to ``path`` (parents created), return the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = result.to_dict()
    validate_document(document)
    target.write_text(json.dumps(document, indent=2) + "\n")
    return target


def load_result(path: Union[str, Path]) -> dict[str, Any]:
    """Load and schema-validate a ``BENCH_*.json`` document."""
    document = json.loads(Path(path).read_text())
    validate_document(document)
    return document


def validate_document(document: Any) -> None:
    """Raise ``ValueError`` unless ``document`` is a schema-valid result."""
    if not isinstance(document, dict):
        raise ValueError("benchmark document must be a JSON object")
    if "schema_version" in document and document["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {document['schema_version']!r} "
            f"(this build reads version {SCHEMA_VERSION}; regenerate the document)"
        )
    missing = [key for key in REQUIRED_KEYS if key not in document]
    if missing:
        raise ValueError(f"benchmark document missing keys: {', '.join(missing)}")
    if not isinstance(document["sim_seconds"], (int, float)):
        raise ValueError("sim_seconds must be numeric")
    if not isinstance(document["cost"], dict) or "total_dollars" not in document["cost"]:
        raise ValueError("cost must be an object containing 'total_dollars'")
    for key in ("dispatch", "details"):
        if not isinstance(document[key], dict):
            raise ValueError(f"{key} must be an object")


def default_json_path(workload: str, directory: Union[str, Path] = ".") -> Path:
    """The conventional output filename for a workload."""
    return Path(directory) / f"BENCH_{workload}.json"


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-serialisable structures."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
