"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim_tail --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced once and then traced, and reports the per-layer metrics.
The report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(sample counts, provenance, checks) is saved under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("sim_tail", "clamshell_full", "service_mix")

#: No round starts after this many seconds, so a run ends well within three
#: minutes even on a slow host.
ROUND_DEADLINE_S = 100.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = common.now()
    try:
        common.require_source_tree()
    except common.SourceTreeMissing as error:
        print(f"perfbench: {error}; run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = started + ROUND_DEADLINE_S
    trace = bool(args.trace)
    if args.workload == "service_mix":
        from perfbench import service

        report = service.run(args.seed, args.seconds, trace, deadline)
    else:
        from perfbench import sim

        report = sim.run(args.workload, args.seed, args.seconds, trace, deadline)
    report.info["provenance"] = common.provenance(args.seed)
    report.info["run_seconds"] = round(common.now() - started, 3)
    report.emit()
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
