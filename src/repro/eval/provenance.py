"""Run metadata for benchmark artifacts.

``BENCH_*.json`` sweep results are only attributable over time if each
document records what produced it.  This
module stamps a ``meta`` key -- git sha, seed, python/numpy versions,
platform, wall clock -- without touching the keys the CI gates read.
"""

from __future__ import annotations

import datetime
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core.backend import backend_name

__all__ = ["git_sha", "run_metadata"]


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
        "backend": backend_name(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "wall_clock_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    if seed is not None:
        meta["seed"] = seed
    return meta
