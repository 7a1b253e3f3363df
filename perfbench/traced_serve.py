"""Serve the program with the benchmark's layer wrappers installed.

Usage, from the root of a checkout::

    python3 perfbench/traced_serve.py --trace-out spans.json --port 0 --max-workers 2

Installs :class:`perfbench.tracer.Tracer`, then calls
``repro.service.serve``; when the server is interrupted (SIGINT), the
collected trace is written to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", type=Path, required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--max-workers", type=int, default=2)
    args = parser.parse_args()
    common.require_source_tree()
    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from repro.service import serve

    try:
        return serve(port=args.port, max_workers=args.max_workers, executor="thread")
    finally:
        tracer.uninstall()
        tracer.snapshot().save(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
