"""The parent side of ``python -m bench run``.

Each workload runs in a fresh child process, one after another, never
two at once.  The child is pinned to one thread per numeric library
(the benchmark machine has two cores; a second thread would measure
contention, not the program).  The parent imports neither numpy nor the
program, so it can refuse a checkout without ``src/repro`` before
spawning anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

from bench.spec import ROOT, load_benchmark

#: Thread-count variables of the numeric libraries numpy may load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")

#: A child that has not finished by then is killed (one run must end
#: within 180 s, start-up included).
CHILD_TIMEOUT_S = 170


def run_child(workload: str, *, seed: int, seconds: float, trace: bool,
              out: Path, smoke: bool) -> "dict[str, Any] | None":
    """Run one workload in a fresh process; its result, or None."""
    path = out / f"{workload}-seed{seed}{'-traced' if trace else ''}.json"
    out.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    # A fixed hash seed keeps str-keyed dicts and sets laid out alike in
    # every run.
    env = dict(os.environ, PYTHONHASHSEED="0",
               **{var: "1" for var in THREAD_VARS})
    command = [sys.executable, "-m", "bench", "_child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--result", str(path)]
    if smoke:
        command.append("--smoke")
    try:
        subprocess.run(command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
                       check=False)
    except subprocess.TimeoutExpired:
        print(f"{workload}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as source:
        return json.load(source)


def summarize(results: "dict[str, dict[str, Any]]",
              wanted: "dict[str, str]") -> "tuple[int, dict[str, Any]]":
    """Exit code and final JSON object for the workloads' results.

    ``wanted`` maps every metric the mode must print to its unit; a
    result missing one, or with another unit, fails the run.
    """
    ok = True
    picked: "dict[str, dict[str, dict[str, Any]]]" = {}
    for name, result in results.items():
        metrics = result["metrics"]
        for metric, unit in wanted.items():
            got = metrics.get(metric)
            if got is None or got["unit"] != unit:
                print(f"{name}: metric {metric} [{unit}] missing",
                      file=sys.stderr)
                ok = False
        picked[name] = {m: metrics[m] for m in wanted if m in metrics}
        ok = ok and result["correct"]
    if len(picked) == 1:
        metrics = next(iter(picked.values()))
    else:
        metrics = {f"{name}/{m}": value for name, values in picked.items()
                   for m, value in values.items()}
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    return (0 if ok else 1), final


def print_result(result: "dict[str, Any]") -> None:
    """Every metric with its unit, then every check."""
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'}, "
          f"{result['attempted']} calls, {result['failed']} failed)")
    for name, metric in sorted(result["metrics"].items()):
        print(f"  {name:42} {metric['value']:>16.6g} {metric['unit']}")
    for check, passed in result["checks"].items():
        print(f"  check {'ok  ' if passed else 'FAIL'} {check}")


def run(workloads: "list[str]", *, seed: int, seconds: float, trace: bool,
        out: Path, smoke: bool) -> int:
    """``python -m bench run``: the exit code."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_benchmark()
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in workloads if w not in known]
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {known}",
              file=sys.stderr)
        return 2
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    results: "dict[str, dict[str, Any]]" = {}
    for workload in workloads or known:
        result = run_child(workload, seed=seed, seconds=seconds, trace=trace,
                           out=out, smoke=smoke)
        if result is None:
            print(f"{workload}: the run produced no result", file=sys.stderr)
            return 1
        print_result(result)
        results[workload] = result
    code, final = summarize(results, wanted)
    print(json.dumps(final))
    return code
