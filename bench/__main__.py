"""Command line of the benchmark.

    python -m bench run [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace 0|1] [--out DIR] [--smoke]
    python -m bench compare BASE... -- CHANGE...
    python -m bench layers TRACE.jsonl

See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench import compare, layers, runner
from bench.spec import ROOT, MissingProgram, load_benchmark, use_checkout_src


def _child(args: argparse.Namespace) -> int:
    """One workload in this process; writes the result, 1 if incorrect."""
    try:
        use_checkout_src()
    except MissingProgram as exc:
        print(exc, file=sys.stderr)
        return 2
    from bench import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)
    result = workloads.run(workload, seed=args.seed, seconds=args.seconds,
                           trace=bool(args.trace),
                           out_dir=Path(args.result).parent)
    with open(args.result, "w", encoding="utf-8") as sink:
        json.dump(result, sink, indent=1)
    return 0 if result["correct"] else 1


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        rest = argv[1:]
        if "--" not in rest:
            print("usage: python -m bench compare BASE... -- CHANGE...",
                  file=sys.stderr)
            return 2
        cut = rest.index("--")
        return compare.compare(rest[:cut], rest[cut + 1:])

    parser = argparse.ArgumentParser(prog="python -m bench",
                                     allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, print metrics",
                              allow_abbrev=False)
    run.add_argument("--workload", nargs="+", default=[],
                     help="workloads to run (default: all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float,
                     default=load_benchmark()["run_seconds"],
                     help="measured seconds per workload")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: per-layer metrics from a traced run")
    run.add_argument("--out", type=Path, default=ROOT / "bench" / "out",
                     help="directory for results and traces")
    run.add_argument("--smoke", action="store_true",
                     help="toy sizes, for the test suite")
    commands.add_parser("compare", help="BASE... -- CHANGE...")
    layer = commands.add_parser("layers", help="self time per layer")
    layer.add_argument("trace_file", type=Path)
    child = commands.add_parser("_child")
    child.add_argument("--workload", required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), required=True)
    child.add_argument("--result", required=True)
    child.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if args.command == "run":
        return runner.run(args.workload, seed=args.seed, seconds=args.seconds,
                          trace=bool(args.trace), out=args.out,
                          smoke=args.smoke)
    if args.command == "layers":
        return layers.report(args.trace_file)
    return _child(args)


if __name__ == "__main__":
    sys.exit(main())
