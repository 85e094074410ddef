"""Opt-in runtime sanitizer asserting the paper's numeric invariants.

Set ``REPRO_SANITIZE=1`` in the environment (or call :func:`activate`)
and the library's layer boundaries start asserting the invariants its
mathematics promise:

* range/interval/grid probabilities (Equations 4-6) lie in ``[0, 1]``
  *before* the defensive clip that normally hides a violation, and
  discretised masses never sum above 1;
* kernel bandwidths are strictly positive and finite (Scott's rule on a
  degenerate window is a real failure mode, not a warning);
* every lane of a :class:`~repro.streams.variance.MultiDimVarianceSketch`
  satisfies the PODS'03 histogram invariants -- ordered timestamps
  inside the window, positive counts, non-negative ``m2``;
* :class:`~repro.streams.sampling.ChainSample` keeps strictly
  increasing chain timestamps inside the window in every slot of every
  stream, a non-empty chain's pending successor equal to the
  counter-based draw at its newest item, and a monotonically
  non-decreasing ``mutation_count``.  The cross-stream
  :class:`~repro.engine.core.DetectorEngine` keeps its stream state in
  these two classes, so their checks cover it;
* an :class:`~repro.core.mdef.MDEFCellTable` keeps strictly increasing
  keys with the int64 sentinel last and one finite, non-negative
  population per real key;
* the 16-bit wire codec round-trips model state within one quantisation
  step.

Checks run only at batch/layer boundaries (one ``ACTIVE`` attribute
test per guarded call when disabled -- zero measurable overhead), so
the whole test suite can run under ``REPRO_SANITIZE=1`` in CI.  A
violation raises :class:`SanitizeError`, which subclasses both
:class:`~repro._exceptions.ReproError` and ``AssertionError``.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Callable, Iterator

import numpy as np

from repro._exceptions import ReproError

__all__ = [
    "ACTIVE",
    "SanitizeError",
    "activate",
    "deactivate",
    "enabled",
    "check_probabilities",
    "check_mass",
    "check_bandwidths",
    "check_chain_sample",
    "check_variance_sketch",
    "check_mdef_table",
    "check_codec_roundtrip",
]

#: Absolute slack for probability bounds: kernel-CDF sums cancel in
#: floating point, so values a hair outside ``[0, 1]`` are legitimate
#: round-off, not invariant violations.
ATOL = 1e-7


def _env_active() -> bool:
    value = os.environ.get("REPRO_SANITIZE", "")
    return value.strip().lower() not in {"", "0", "false", "no", "off"}


#: Whether sanitizer checks are live.  Read at every guarded call site
#: (``if _sanitize.ACTIVE:``); initialised from ``REPRO_SANITIZE``.
ACTIVE = _env_active()


class SanitizeError(ReproError, AssertionError):
    """A runtime numeric invariant was violated."""


def activate() -> None:
    """Turn sanitizer checks on for this process."""
    global ACTIVE
    ACTIVE = True


def deactivate() -> None:
    """Turn sanitizer checks off for this process."""
    global ACTIVE
    ACTIVE = False


@contextlib.contextmanager
def enabled() -> "Iterator[None]":
    """Context manager running its body with checks active."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = True
    try:
        yield
    finally:
        ACTIVE = previous


def _fail(label: str, message: str) -> None:
    raise SanitizeError(f"sanitize[{label}]: {message}")


def check_probabilities(values: "np.ndarray | float", *, label: str) -> None:
    """Assert every value is a probability: finite and in ``[0, 1]``.

    Call *before* any defensive ``np.clip`` -- the clip is exactly what
    makes violations invisible in normal operation.
    """
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        _fail(label, "non-finite probability value")
    if arr.size and (float(arr.min()) < -ATOL or float(arr.max()) > 1.0 + ATOL):
        _fail(label, f"probability outside [0, 1]: "
                     f"min={float(arr.min())!r}, max={float(arr.max())!r}")


def check_mass(masses: np.ndarray, *, label: str) -> None:
    """Assert a discretised mass vector: probabilities summing to <= 1."""
    arr = np.asarray(masses, dtype=float)
    check_probabilities(arr, label=label)
    total = float(arr.sum())
    if total > 1.0 + ATOL * max(1, arr.size):
        _fail(label, f"total mass {total!r} exceeds 1")


def check_bandwidths(bandwidths: np.ndarray, *, label: str) -> None:
    """Assert kernel bandwidths are finite and strictly positive."""
    arr = np.asarray(bandwidths, dtype=float)
    if not np.isfinite(arr).all() or arr.size == 0 or float(arr.min()) <= 0.0:
        _fail(label, f"bandwidths must be finite and > 0, got {arr!r}")


def check_chain_sample(sample: Any, *, mutations_before: int | None = None,
                       label: str = "ChainSample") -> None:
    """Assert a :class:`~repro.streams.sampling.ChainSample`'s invariants.

    Inspects the sampler's padded chain arrays (this module is the one
    sanctioned consumer of those privates).  In every slot of every
    stream, timestamps strictly increase inside the window ``(now -
    |W|, now]``, values are finite, columns past the chain's length
    (column 0 of an empty slot included) hold -1, and a non-empty
    chain's pending successor is the
    :func:`~repro.streams.sampling.draw_successors` draw at its newest
    item; ``mutation_count`` -- the estimator-cache invalidation key --
    never moves backwards.
    """
    from repro.streams.sampling import draw_successors

    window = sample.window_size
    now = sample.timestamp
    n_slots = sample.sample_size
    if mutations_before is not None \
            and sample.mutation_count < mutations_before:
        _fail(label, f"mutation_count moved backwards "
                     f"({mutations_before} -> {sample.mutation_count})")
    ts = sample._chain_ts
    lengths = sample._chain_len
    width = ts.shape[1]

    def where(flat: int) -> str:
        stream, slot = divmod(flat, n_slots)
        return f"{label} stream {stream} slot {slot}"

    misfit = (lengths < 0) | (lengths > width)
    if misfit.any():
        flat = int(np.flatnonzero(misfit)[0])
        _fail(where(flat), f"chain length {lengths[flat]} outside "
                           f"0..{width}")
    stored = np.arange(width) < lengths[:, None]
    outside = stored & ((ts <= now - window) | (ts > now))
    if outside.any():
        flat, col = np.argwhere(outside)[0].tolist()
        _fail(where(flat), f"holds timestamp {ts[flat, col]} outside window "
                           f"({now - window}, {now}]")
    unordered = stored[:, 1:] & (ts[:, 1:] <= ts[:, :-1])
    if unordered.any():
        flat, col = np.argwhere(unordered)[0].tolist()
        _fail(where(flat), f"chain timestamps not strictly increasing "
                           f"({ts[flat, col]} -> {ts[flat, col + 1]})")
    padding = ~stored & (ts != -1)
    if padding.any():
        flat, col = np.argwhere(padding)[0].tolist()
        _fail(where(flat), f"holds timestamp {ts[flat, col]} past its chain "
                           f"length {lengths[flat]} (-1 expected)")
    nonfinite = stored & ~np.isfinite(sample._chain_val).all(axis=2)
    if nonfinite.any():
        _fail(where(int(np.argwhere(nonfinite)[0, 0])),
              "holds a non-finite value")
    live = np.flatnonzero(lengths)
    newest = ts[live, lengths[live] - 1]
    expected = draw_successors(sample._keys[live // n_slots],
                               live % n_slots, newest, window)
    successors = sample._succ_ts.reshape(-1)[live]
    if (successors != expected).any():
        i = int(np.flatnonzero(successors != expected)[0])
        _fail(where(int(live[i])),
              f"successor_ts {successors[i]} is not the draw "
              f"{expected[i]} at its newest item {newest[i]}")


def check_mdef_table(table: Any, *, label: str = "MDEFCellTable") -> None:
    """Assert an :class:`~repro.core.mdef.MDEFCellTable`'s invariants.

    Keys strictly increase and end with the int64 sentinel, which sits
    past every real key; there is one population per key, and every
    real key's population is finite and non-negative (a range
    probability in ``[0, 1]`` times a window size).
    """
    keys = np.asarray(table.keys)
    counts = np.asarray(table.counts)
    if keys.size == 0 or keys[-1] != np.iinfo(np.int64).max:
        _fail(label, "the int64 sentinel key is not last")
    if counts.shape != keys.shape:
        _fail(label, f"{keys.size} keys but {counts.size} populations")
    if (np.diff(keys) <= 0).any():
        _fail(label, "keys not strictly increasing")
    real = counts[:-1]
    if not np.isfinite(real).all() or (real < 0.0).any():
        _fail(label, "a tabled population is negative or not finite")


def check_variance_sketch(sketch: Any, *,
                          label: str = "MultiDimVarianceSketch") -> None:
    """Assert the bucket invariants of every lane of a
    :class:`~repro.streams.variance.MultiDimVarianceSketch`.

    Each lane's buckets run oldest to newest with strictly increasing
    timestamps that are not in the future, only the oldest may precede
    the window's left edge (its count is halved at query time -- that is
    the approximation the epsilon budget bounds), every count is a
    positive integer, every ``m2`` is non-negative and finite, and no
    lane is longer than the arrays hold.
    """
    now, window, end = sketch._timestamp, sketch._window_size, sketch._end
    first = sketch._first
    if end > sketch._ts.shape[1] or (first < 0).any() or (first > end).any():
        _fail(label, f"lane lengths {(end - first).tolist()} exceed the "
                     f"{end} stored columns")
    column = np.arange(end)
    valid = column >= first[:, None]
    ts = sketch._ts[:, :end]
    counts = sketch._counts[:, :end]
    m2s = sketch._m2s[:, :end]
    finite = np.isfinite(sketch._means[:, :end]) & np.isfinite(m2s)
    unordered = np.zeros_like(valid)
    unordered[:, 1:] = valid[:, 1:] & (ts[:, 1:] <= ts[:, :-1])
    # One invariant at a time over all lanes; the first offending bucket
    # in lane order is reported.
    for bad, message in (
            (valid & (counts < 1), "bucket {i} has count {count} < 1"),
            (valid & ~finite, "bucket {i} has non-finite moments"),
            (valid & (m2s < -ATOL), "bucket {i} has negative m2 {m2!r}"),
            (valid & (ts > now),
             "bucket {i} timestamp {ts} is in the future (now {now})"),
            (valid & (column > first[:, None]) & (ts <= now - window),
             "non-oldest bucket {i} expired at {ts} but was kept"),
            (unordered, "bucket timestamps not strictly increasing "
                        "({previous} -> {ts})")):
        if bad.any():
            lane, col = (int(x) for x in np.argwhere(bad)[0])
            _fail(f"{label} dim {lane}", message.format(
                i=col - int(first[lane]), count=int(counts[lane, col]),
                m2=float(m2s[lane, col]), ts=int(ts[lane, col]),
                previous=int(ts[lane, col - 1]), now=now))


def check_codec_roundtrip(payload: bytes, sample: np.ndarray,
                          stddev: np.ndarray, window_size: int,
                          decoder: "Callable[[bytes], tuple[np.ndarray, np.ndarray, int]]",
                          *, step: float,
                          label: str = "codec") -> None:
    """Assert an encoded model state decodes back within quantisation.

    ``decoder`` is passed in by the codec module itself (avoiding a
    circular import); ``step`` is the fixed-point resolution.  Values
    must round-trip within half a step plus float fuzz, and the window
    size exactly.
    """
    decoded_sample, decoded_stddev, decoded_window = decoder(payload)
    if decoded_window != window_size:
        _fail(label, f"window_size round-trip {window_size} -> {decoded_window}")
    tolerance = 0.5 * step + 1e-12
    for name, original, decoded in (("sample", sample, decoded_sample),
                                    ("stddev", stddev, decoded_stddev)):
        original = np.asarray(original, dtype=float)
        if decoded.shape != original.shape:
            _fail(label, f"{name} shape round-trip "
                         f"{original.shape} -> {decoded.shape}")
        error = float(np.max(np.abs(decoded - original))) if original.size else 0.0
        if error > tolerance:
            _fail(label, f"{name} round-trip error {error!r} exceeds "
                         f"half a quantisation step ({tolerance!r})")
