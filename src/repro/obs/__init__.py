"""Opt-in observability: tracing and metrics (``repro.obs``).

Mirrors the :mod:`repro._sanitize` pattern: a module-level ``ACTIVE``
flag, initialised from the ``REPRO_TRACE`` environment variable, gates
every instrumentation site behind a single attribute check::

    from repro import obs
    ...
    if obs.ACTIVE:
        obs.emit("message.send", kind=kind, sender=s, dest=d, words=w)

With the flag off (the default) instrumented code pays one boolean
check per site and allocates nothing, so production benchmarks are
unaffected.  With it on, two singletons collect everything:

* :class:`repro.obs.trace.Tracer` -- hierarchical ``run > tick > node >
  phase`` spans and JSONL events, ring-buffered and optionally streamed
  to a file sink (``REPRO_TRACE_FILE`` or ``activate(trace_path=...)``).
* :class:`repro.obs.metrics.MetricsRegistry` -- named counters, gauges
  and histograms unifying the legacy ``MessageCounter`` /
  ``network_stats`` accounting.

Where the time goes is the benchmark's layer ledger (``python -m bench
run --trace 1`` then ``python -m bench layers``); traces answer why a
reading was flagged.

Activation, like sanitization, is either ambient (``REPRO_TRACE=1``),
imperative (:func:`activate` / :func:`deactivate`) or scoped
(:func:`enabled`).  :func:`reset` discards all collected state.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               merge_snapshots)
from repro.obs.trace import DEFAULT_CAPACITY, Tracer

__all__ = [
    "ACTIVE",
    "Counter",
    "DEFAULT_CAPACITY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "activate",
    "deactivate",
    "emit",
    "enabled",
    "merge_snapshots",
    "metrics",
    "reset",
    "snapshot",
    "span",
    "tracer",
]

_ENV_FLAG = "REPRO_TRACE"
_ENV_FILE = "REPRO_TRACE_FILE"
_FALSEY = frozenset({"", "0", "false", "no", "off"})


def _env_active() -> bool:
    """True when ``REPRO_TRACE`` requests ambient tracing."""
    return os.environ.get(_ENV_FLAG, "").strip().lower() not in _FALSEY


#: Module-level switch consulted by every instrumentation site.
ACTIVE: bool = _env_active()

_tracer = Tracer()
_metrics = MetricsRegistry()


def tracer() -> Tracer:
    """The process-wide tracer singleton."""
    return _tracer


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry singleton."""
    return _metrics


def reset() -> None:
    """Discard all collected events and metrics."""
    global _tracer, _metrics
    _tracer.close_sink()
    _tracer = Tracer()
    _metrics = MetricsRegistry()


def activate(trace_path: "str | None" = None) -> None:
    """Turn instrumentation on; optionally open a JSONL file sink."""
    global ACTIVE
    if trace_path is not None:
        _tracer.open_sink(trace_path)
    ACTIVE = True


def deactivate() -> None:
    """Turn instrumentation off and close any open file sink."""
    global ACTIVE
    ACTIVE = False
    _tracer.close_sink()


@contextlib.contextmanager
def enabled(trace_path: "str | None" = None) -> "Iterator[None]":
    """Scope with instrumentation on; restores the previous state."""
    global ACTIVE
    previous = ACTIVE
    if trace_path is not None:
        _tracer.open_sink(trace_path)
    ACTIVE = True
    try:
        yield
    finally:
        ACTIVE = previous
        if trace_path is not None:
            _tracer.close_sink()


def emit(event: str, **fields: object) -> "dict[str, object]":
    """Emit one trace event on the singleton tracer."""
    return _tracer.emit(event, **fields)


def span(name: str, **fields: object) -> "contextlib.AbstractContextManager[int]":
    """Open a span on the singleton tracer (context manager)."""
    return _tracer.span(name, **fields)


def snapshot() -> "dict[str, object]":
    """Everything collected so far, as plain data for embedding in JSON."""
    return {
        "n_events": _tracer.n_emitted,
        "n_buffered": len(_tracer.events()),
        "events_by_kind": _tracer.counts_by_kind(),
        "n_ring_dropped": _tracer.n_dropped,
        "ring_dropped_by_kind": _tracer.dropped_by_kind(),
        "metrics": _metrics.snapshot(),
    }


def _open_ambient_sink(path: str) -> None:
    """Open the ``REPRO_TRACE_FILE`` sink; warn instead of failing import.

    A bad ambient path must not make ``import repro`` raise -- the run
    proceeds with in-memory tracing only and a clear warning naming the
    path.
    """
    from repro._exceptions import ParameterError
    try:
        _tracer.open_sink(path)
    except ParameterError as exc:
        import warnings
        warnings.warn(f"{_ENV_FILE}: {exc}; tracing continues in memory "
                      "without a file sink", RuntimeWarning, stacklevel=2)


# Ambient activation may also name a sink file up front.
if ACTIVE:  # pragma: no cover - exercised via subprocess in CI smoke
    _ambient_path = os.environ.get(_ENV_FILE, "").strip()
    if _ambient_path:
        _open_ambient_sink(_ambient_path)
