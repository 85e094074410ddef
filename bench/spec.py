"""The benchmark's declared metrics, and where the program is found.

``BENCHMARK.json`` at the repository root is the single list of gated
metrics: its ``end_to_end`` entries (with units, directions and bounds)
are printed by every untraced run and its ``per_layer`` entries by every
traced run.  A few metrics exist on one workload only, so they cannot be
gated by that file (it asks every metric of every workload); they are
declared in :data:`WORKLOAD_METRICS` and gated by ``python -m bench
compare`` alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

#: Root of the checkout: the directory holding ``BENCHMARK.json``.
ROOT = Path(__file__).resolve().parent.parent

#: Metrics the compare command gates besides ``end_to_end``:
#: name -> (unit, direction, bound).  A bound of 0 makes any increase
#: a regression.
WORKLOAD_METRICS: "dict[str, tuple[str, str, float]]" = {
    "words_per_reading": ("words", "lower", 0.10),
    "recovery_ms_p50": ("ms", "lower", 0.15),
    "ops_failed_frac": ("share", "lower", 0.0),
}


def load_benchmark() -> "dict[str, Any]":
    """The parsed ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as source:
        return json.load(source)


def gated_metrics() -> "dict[str, tuple[str, float]]":
    """Every metric ``compare`` gates: name -> (direction, bound)."""
    gated = {m["name"]: (m["better"], float(m["bound"]))
             for m in load_benchmark()["end_to_end"]}
    gated.update({name: (better, bound) for name, (_, better, bound)
                  in WORKLOAD_METRICS.items()})
    return gated


class MissingProgram(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def use_checkout_src() -> None:
    """Import :mod:`repro` from this checkout's ``src`` and nowhere else.

    A copy of the package installed elsewhere would benchmark the wrong
    code, so it is refused rather than used.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to benchmark: {src / 'repro'} "
                             f"is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    found = Path(repro.__file__).resolve()
    if src.resolve() not in found.parents:
        raise MissingProgram(f"repro was imported from {found}, "
                             f"not from {src}")
