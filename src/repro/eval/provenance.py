"""Run metadata for benchmark artifacts, and writing them.

``BENCH_*.json`` sweep results are only attributable over time if each
document records what produced it.  This
module stamps a ``meta`` key -- git sha, seed, python/numpy versions,
platform, wall clock -- and the ``machine`` block without touching the
keys the CI gates read, and writes the finished document.
"""

from __future__ import annotations

import datetime
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro._artifacts import atomic_write_text

__all__ = ["git_sha", "machine_info", "run_metadata", "write_results"]


def git_sha() -> str:
    """The repository's current commit sha, or ``"unknown"``.

    Resolved relative to this file so it works regardless of the
    caller's working directory; any git failure (no repo, no binary,
    an sdist/zipapp install whose anchor is not a real directory)
    degrades to ``"unknown"`` rather than poisoning a benchmark run.
    """
    try:
        anchor = Path(__file__).resolve().parent
        if not anchor.is_dir():
            return "unknown"    # e.g. running from a zipped install
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=anchor,
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, ValueError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_metadata(*, seed: "int | None" = None) -> "dict[str, object]":
    """The ``meta`` stamp for a benchmark document."""
    meta: "dict[str, object]" = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
        "wall_clock_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    if seed is not None:
        meta["seed"] = seed
    return meta


def machine_info() -> "dict[str, str]":
    """The ``machine`` block of a benchmark document."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def write_results(results: "dict[str, object]", path: "str | Path") -> Path:
    """Atomically write a benchmark document as JSON; return the path."""
    return atomic_write_text(
        path, json.dumps(results, indent=2, sort_keys=True) + "\n")
