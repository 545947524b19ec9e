"""Start ``repro serve`` for the ``serve-mix`` workload, optionally traced.

Usage::

    python3 perfbench/serve_boot.py --report OUT.json [--trace SPANS.jsonl
        --cold-calls N] -- <repro serve arguments>

Runs :func:`repro.serve.cli.serve_main` in this process.  When it returns
(after SIGTERM and a drain) the daemon's peak resident memory — and, when
traced, its per-layer metrics — are written to ``--report``.  With
``--trace`` the layer wrappers are installed before the daemon starts, so
its worker threads record spans like any other process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from layers import install, layer_metrics
from spans import Recorder


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(prog="serve_boot.py")
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", default=None, metavar="SPANS")
    parser.add_argument("--cold-calls", type=int, default=0)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro.serve.cli import serve_main

    recorder = Recorder() if args.trace else None
    restore = install(recorder) if recorder is not None else None
    try:
        code = serve_main(serve_args)
    finally:
        if restore is not None:
            restore()
    report: "dict[str, object]" = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    }
    if recorder is not None:
        metrics, gap = layer_metrics(recorder.spans, cold_calls=args.cold_calls)
        report.update(layers=metrics, gap=list(gap))
        recorder.write(args.trace)
    Path(args.report).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
