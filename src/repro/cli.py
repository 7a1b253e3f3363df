"""Command-line interface for running the reproduction's experiments.

Usage::

    python -m repro list
    python -m repro run fig11 --seed 1
    python -m repro run e2e --num-records 500
    python -m repro bench scale --json BENCH_scale.json
    python -m repro bench concurrency --json BENCH_concurrency.json --repeat 3
    python -m repro bench compare baselines/BENCH_scale.json BENCH_scale.json
    python -m repro serve --port 8080
    python -m repro lint src tests benchmarks

Each experiment name maps to one paper artifact (``list`` names them); ``run``
executes the driver and prints the reproduced table.  ``bench`` executes the
deterministic benchmark workloads of :mod:`repro.bench` and the scripted
baseline comparator that backs the CI behaviour gate.  ``lint`` runs
the determinism/concurrency static-analysis pass of :mod:`repro.lint` that
CI enforces (see README "Static analysis").  This is a thin wrapper over
:mod:`repro.experiments` / :mod:`repro.bench` / :mod:`repro.lint` for users
who want the figures and numbers without writing Python.
"""

from __future__ import annotations

import argparse
import json
from typing import Callable, Optional, Sequence

from . import __version__
from .api.events import ProgressEvent, ProgressKind
from .experiments import (
    build_technique_matrix,
    format_table,
    headline_numbers,
    run_combined_experiment,
    run_end_to_end_experiment,
    run_generated_dataset_experiment,
    run_pool_maintenance_experiment,
    run_real_dataset_experiment,
    run_straggler_experiment,
    run_taxonomy_experiment,
    run_termest_experiment,
    run_threshold_sweep,
)
from .experiments.extensions import (
    run_quality_maintenance_experiment,
    run_reweighting_ablation,
)


def _print(title: str, headers: list[str], rows: list[list[object]]) -> None:
    print(f"\n=== {title} ===")
    print(format_table(headers, rows))


def _run_taxonomy(seed: int, num_records: int) -> None:
    result = run_taxonomy_experiment(num_tasks=max(num_records, 5000), seed=seed)
    _print(
        "Table 1 / S2.1 — deployment statistics (measured vs paper)",
        ["statistic", "measured", "paper"],
        result.headline_rows(),
    )


def _run_maintenance(seed: int, num_records: int) -> None:
    result = run_pool_maintenance_experiment(num_tasks=max(40, num_records // 4), seed=seed)
    _print(
        "Figures 3/4 — pool maintenance",
        ["complexity", "latency PM8", "latency PMinf", "speedup", "cost PM8", "cost PMinf", "ratio"],
        result.summary_rows(),
    )


def _run_threshold(seed: int, num_records: int) -> None:
    result = run_threshold_sweep(num_tasks=max(40, num_records // 5), seed=seed)
    _print(
        "Figures 7/8 — threshold sweep",
        ["threshold", "replacements", "mean batch latency", "batch latency std"],
        result.replacement_rows(),
    )


def _run_straggler(seed: int, num_records: int, **kwargs: object) -> None:
    result = run_straggler_experiment(
        num_tasks=max(40, num_records // 5), seed=seed, **kwargs
    )
    _print(
        "Figures 9/10/11 — straggler mitigation",
        ["R", "latency speedup", "stddev reduction", "cost increase"],
        result.summary_rows(),
    )


def _run_combined(seed: int, num_records: int, **kwargs: object) -> None:
    result = run_combined_experiment(
        num_tasks=max(40, num_records // 5), seed=seed, **kwargs
    )
    _print(
        "Figure 12 — combined techniques",
        ["config", "total latency (s)", "batch std (s)", "cost ($)"],
        result.summary_rows(),
    )


def _run_termest(seed: int, num_records: int, **kwargs: object) -> None:
    result = run_termest_experiment(
        num_tasks=max(40, num_records // 5), seed=seed, **kwargs
    )
    _print("Figure 14 — TermEst", ["configuration", "workers replaced"], result.summary_rows())


def _run_hybrid_sim(seed: int, num_records: int) -> None:
    result = run_generated_dataset_experiment(num_records=max(80, num_records // 2), seed=seed)
    _print(
        "Figure 15 — hybrid learning on generated datasets",
        ["dataset", "r", "active", "passive", "hybrid", "best"],
        result.summary_rows(),
    )


def _run_hybrid_real(seed: int, num_records: int) -> None:
    result = run_real_dataset_experiment(num_records=max(100, num_records), seed=seed)
    _print(
        "Figure 16 — hybrid learning on MNIST/CIFAR stand-ins",
        ["dataset", "r", "active", "passive", "hybrid", "best"],
        result.summary_rows(),
    )


def _print_progress(label: str, event: ProgressEvent) -> None:
    """One line per ProgressEvent, the ``--stream`` output format."""
    if event.kind is ProgressKind.RUN_STARTED:
        print(f"[{label}] run started (pool={event.pool_size})", flush=True)
    elif event.kind is ProgressKind.BATCH_COMPLETED:
        accuracy = (
            f" acc={event.accuracy_estimate:.3f}"
            if event.accuracy_estimate is not None
            else ""
        )
        print(
            f"[{label}] batch {event.batch_index}: +{len(event.new_labels)} labels "
            f"(total {event.records_labeled}) t={event.wall_clock:.1f}s "
            f"pool={event.pool_size}{accuracy}",
            flush=True,
        )
    else:
        print(
            f"[{label}] finished: {event.records_labeled} labels "
            f"in {event.wall_clock:.1f}s",
            flush=True,
        )


def _run_e2e(
    seed: int, num_records: int, stream: bool = False, **kwargs: object
) -> None:
    on_event = _print_progress if stream else None
    result = run_end_to_end_experiment(
        num_records=max(100, num_records), seed=seed, on_event=on_event, **kwargs
    )
    for comparison in result.comparisons:
        _print(
            f"Figure 17 — time to accuracy on {comparison.dataset_name}",
            ["threshold", "CLAMShell", "Base-R", "Base-NR"],
            comparison.time_to_accuracy_rows(),
        )
        numbers = headline_numbers(comparison)
        _print(
            f"S6.6 headline numbers on {comparison.dataset_name}",
            ["metric", "measured", "paper"],
            numbers.rows(),
        )


def _run_table2(seed: int, num_records: int) -> None:
    matrix = build_technique_matrix(seed=seed)
    _print(
        "Table 2 — technique impact matrix",
        ["technique", "mean latency", "variance", "cost", "general"],
        matrix.rows(),
    )


def _run_quality_pool(seed: int, num_records: int) -> None:
    result = run_quality_maintenance_experiment(num_tasks=max(60, num_records // 3), seed=seed)
    _print(
        "Extension — quality-maintained pools",
        ["pool", "label accuracy", "total latency (s)", "replacements"],
        result.rows(),
    )


def _run_reweighting(seed: int, num_records: int) -> None:
    result = run_reweighting_ablation(num_records=max(100, num_records // 2), seed=seed)
    _print(
        "Extension — hybrid re-weighting ablation",
        ["active weight boost", "final accuracy"],
        result.rows(),
    )


#: Experiments whose drivers accept a straggler-mitigation duplicate cap and
#: so honour ``--max-extra-assignments``.
CAP_AWARE_EXPERIMENTS = frozenset({"straggler", "combined", "termest", "e2e"})

EXPERIMENTS: dict[str, tuple[str, Callable[..., None]]] = {
    "taxonomy": ("Table 1 / Figure 2 — latency taxonomy and worker CDFs", _run_taxonomy),
    "maintenance": ("Figures 3-6 — pool maintenance", _run_maintenance),
    "threshold": ("Figures 7-8 — maintenance threshold sweep", _run_threshold),
    "straggler": ("Figures 9-11 — straggler mitigation", _run_straggler),
    "combined": ("Figure 12 — combining SM and PM", _run_combined),
    "termest": ("Figure 14 — TermEst ablation", _run_termest),
    "fig15": ("Figure 15 — hybrid learning (generated datasets)", _run_hybrid_sim),
    "fig16": ("Figure 16 — hybrid learning (MNIST/CIFAR stand-ins)", _run_hybrid_real),
    "e2e": ("Figures 17-18 + S6.6 — end-to-end comparison", _run_e2e),
    "table2": ("Table 2 — technique impact matrix", _run_table2),
    "quality-pool": ("Extension — quality-maintained pools", _run_quality_pool),
    "reweighting": ("Extension — hybrid re-weighting ablation", _run_reweighting),
}


def _parse_cap(raw: str) -> int:
    """Parse ``--max-extra-assignments``: an int >= 0, or exactly -1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if value < -1:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (or -1 for unlimited), got {value}"
        )
    return value


def _parse_param(raw: str) -> tuple[str, object]:
    """Parse one ``--param key=value`` override (value is JSON, else string)."""
    if "=" not in raw:
        raise argparse.ArgumentTypeError(
            f"--param expects key=value, got {raw!r}"
        )
    key, _, value = raw.partition("=")
    key = key.strip()
    if not key:
        raise argparse.ArgumentTypeError(f"--param has an empty key: {raw!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _add_bench_parser(subparsers: argparse._SubParsersAction) -> None:
    from .bench import workload_specs

    bench_parser = subparsers.add_parser(
        "bench",
        help="run deterministic benchmarks / compare against baselines",
        description=(
            "Run a named benchmark workload and optionally write the stable "
            "BENCH_<workload>.json document, or compare two such documents "
            "(the CI behaviour gate: every outcome field must be equal)."
        ),
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)

    bench_sub.add_parser("list", help="list available benchmark workloads")

    compare_parser = bench_sub.add_parser(
        "compare", help="compare a current BENCH json against a baseline"
    )
    compare_parser.add_argument("baseline", help="path to the baseline BENCH json")
    compare_parser.add_argument("current", help="path to the current BENCH json")

    for spec in workload_specs():
        workload_parser = bench_sub.add_parser(
            spec.name, help=spec.description or f"run the {spec.name} workload"
        )
        workload_parser.add_argument(
            "--seed", type=int, default=0, help="random seed (default 0)"
        )
        workload_parser.add_argument(
            "--repeat",
            type=int,
            default=1,
            help="runs whose outcomes must be identical (default 1)",
        )
        workload_parser.add_argument(
            "--json",
            dest="json_path",
            metavar="PATH",
            default=None,
            help="write the BENCH json document to PATH",
        )
        workload_parser.add_argument(
            "--param",
            action="append",
            type=_parse_param,
            default=[],
            metavar="KEY=VALUE",
            help="override a workload parameter (value parsed as JSON; repeatable)",
        )


def _run_bench(args: argparse.Namespace) -> int:
    from .bench import compare_files, run_benchmark, workload_specs, write_result

    if args.bench_command == "list":
        for spec in workload_specs():
            defaults = ", ".join(f"{k}={v}" for k, v in spec.defaults.items())
            suffix = f" [{defaults}]" if defaults else ""
            print(f"{spec.name:<12} {spec.description}{suffix}")
        return 0

    if args.bench_command == "compare":
        report = compare_files(args.baseline, args.current)
        for line in report.summary_lines():
            print(line)
        return 0 if report.passed else 1

    result = run_benchmark(
        args.bench_command,
        seed=args.seed,
        repeat=args.repeat,
        params=dict(args.param),
    )
    for line in result.summary_lines():
        print(line)
    if args.json_path:
        path = write_result(result, args.json_path)
        print(f"wrote {path}")
    return 0


def _add_serve_parser(subparsers: argparse._SubParsersAction) -> None:
    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the labeling engine over HTTP (jobs, labels, SSE progress)",
        description=(
            "Start the labeling-as-a-service HTTP front end: POST /jobs "
            "submits a JSON JobSpec document, GET /jobs[/{id}] reports "
            "status and stats, GET /jobs/{id}/labels paginates results, "
            "GET /jobs/{id}/events streams live progress via SSE, and "
            "DELETE /jobs/{id} unregisters a job.  Serves until interrupted."
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 picks an ephemeral port (default 8080)",
    )
    serve_parser.add_argument(
        "--max-workers",
        type=int,
        default=8,
        help="engine pool size for concurrent jobs (default 8)",
    )
    serve_parser.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help=(
            "execution mode for submitted jobs: pool threads (GIL-bound) or "
            "shared-nothing worker processes; outcomes are bit-identical "
            "(default thread)"
        ),
    )


def _run_serve(args: argparse.Namespace) -> int:
    from .service import serve

    return serve(
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        executor=args.executor,
    )


def _add_lint_parser(subparsers: argparse._SubParsersAction) -> None:
    from .lint import add_lint_arguments

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the determinism/concurrency static-analysis pass",
        description=(
            "AST-based checks for the repo's bit-identity invariants: seeded "
            "RNG ownership, no wall-clock reads in simulated code, "
            "_GUARDED_BY lock discipline, ordering hazards, and oracle "
            "parity between indexed fast paths and their _scan twins.  "
            "Exits 1 when unsuppressed findings remain (the CI lint gate)."
        ),
    )
    add_lint_arguments(lint_parser)


def _run_lint(args: argparse.Namespace) -> int:
    from .lint import run_lint_cli

    return run_lint_cli(
        args.paths, output_format=args.format, list_rules=args.list_rules
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce CLAMShell (VLDB 2015) experiments on the simulated crowd.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run one experiment and print its table")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    run_parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    run_parser.add_argument(
        "--num-records",
        type=int,
        default=250,
        help="approximate labeling budget; drivers scale their workloads from it",
    )
    run_parser.add_argument(
        "--stream",
        action="store_true",
        help="print per-batch progress lines while the runs advance (e2e only)",
    )
    run_parser.add_argument(
        "--max-extra-assignments",
        type=_parse_cap,
        default=None,
        metavar="N",
        help=(
            "cap concurrent straggler-mitigation duplicates per task "
            "(N >= 0; -1 forces unlimited; default: each experiment's own "
            "configuration; straggler/combined/termest/e2e only)"
        ),
    )
    _add_bench_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_lint_parser(subparsers)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, (description, _) in sorted(EXPERIMENTS.items()):
            print(f"{name:<14} {description}")
        return 0
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "lint":
        return _run_lint(args)
    description, runner = EXPERIMENTS[args.experiment]
    print(f"Running: {description} (seed={args.seed})")
    kwargs: dict[str, object] = {}
    if args.max_extra_assignments is not None:
        if args.experiment in CAP_AWARE_EXPERIMENTS:
            # -1 is the CLI spelling of "unlimited" (config None); other
            # negatives are rejected at parse time.
            kwargs["max_extra_assignments"] = (
                None if args.max_extra_assignments == -1
                else args.max_extra_assignments
            )
        else:
            print(
                "note: --max-extra-assignments only applies to "
                f"{', '.join(sorted(CAP_AWARE_EXPERIMENTS))}; ignoring"
            )
    if args.experiment == "e2e":
        _run_e2e(args.seed, args.num_records, stream=args.stream, **kwargs)
        return 0
    if args.stream:
        print("note: --stream is only supported for the e2e experiment; ignoring")
    runner(args.seed, args.num_records, **kwargs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
