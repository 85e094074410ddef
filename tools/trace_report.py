"""Summarize a ``repro.obs`` JSONL trace from the command line.

Usage::

    python tools/trace_report.py TRACE_d3.jsonl [--validate] [--json]
    python tools/trace_report.py <run-dir-of-spools> --validate

Renders the per-kind event counts, the per-message-kind
send/deliver/drop/word totals and the span time breakdown of a trace
produced by ``repro trace`` or any ``repro.obs`` file sink.  The input may also be one worker spool file
or a run directory of ``worker-*.spool.jsonl`` spools (merged on the
fly); distributed sources additionally report per-worker ring-overflow
drops and torn spool tails.  ``--validate`` additionally checks every
event against the schema of :mod:`repro.obs.schema` and exits non-zero
on violations (the CI obs-smoke job runs in this mode); ``--json``
emits the machine-readable summary instead of the table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Allow running as a plain script from the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import report, schema  # noqa: E402
from repro.obs.distributed import load_trace_meta  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="trace_report",
        description="summarize a repro.obs JSONL trace, worker spool, "
                    "or run directory of spools")
    parser.add_argument("trace", help="JSONL trace file, worker spool, "
                                      "or run directory of spools")
    parser.add_argument("--validate", action="store_true",
                        help="check every event against the schema and "
                             "exit non-zero on violations")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON instead of a table")
    args = parser.parse_args(argv)

    events, meta = load_trace_meta(args.trace)
    problems: "list[str]" = []
    if args.validate:
        problems = schema.validate_events(events)
        for problem in problems[:50]:
            print(f"SCHEMA VIOLATION: {problem}", file=sys.stderr)
        if problems:
            print(f"{len(problems)} schema violation(s) in {args.trace}",
                  file=sys.stderr)

    summary = report.summarize(events)
    if meta:
        summary["distributed"] = meta
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(report.format_report(summary))
        if meta:
            print(f"workers: {meta['worker_ids']}")
            ring_dropped = meta.get("n_ring_dropped", 0)
            if ring_dropped:
                print(f"ring overflow: {ring_dropped} event(s) evicted "
                      f"from in-memory rings "
                      f"(by worker: {meta['ring_dropped_by_worker']})")
            torn = {w: n for w, n in meta.get("torn_by_worker", {}).items()
                    if n}
            if torn:
                print(f"torn spool tails: {torn}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
