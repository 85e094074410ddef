"""Versioned snapshot codec for detector shard state.

Every ``# repro-lint: shard-state`` class implements a two-method
protocol -- ``snapshot_state() -> dict`` returning plain data (ints,
floats, strings, lists, dicts, numpy arrays, RNG state dicts) and a
``restore_state(state)`` classmethod rebuilding a bit-identical
instance.  This module turns those dicts into durable bytes:

``encode_snapshot`` frames the payload as

    magic (4 bytes) | schema version (u16) | payload length (u64) |
    sha256(payload) (32 bytes) | payload

where the payload is the pickled ``{"class": name, "state": ...}``
record.  ``decode_snapshot`` refuses anything with a wrong magic,
an unknown schema version, a truncated payload or a checksum mismatch
(:class:`~repro._exceptions.SnapshotError`), so a torn checkpoint file
can never restore into a silently wrong engine.

The class registry below is the codec's closed world: only registered
classes encode or decode, and lint rule RL013 cross-checks that every
shard-state class in the tree both implements the protocol and appears
in :data:`REGISTERED_CLASSES` (the tuple is parsed statically -- keep
its elements bare class names).

The payload uses pickle for the *leaf values only* (arrays, RNG state
dicts); snapshots are an internal artifact format written and read by
this package, not a hardening boundary against untrusted input.

Round-trip guarantee: for every registered class, restoring a snapshot
and replaying the remaining input produces bit-identical state and
detections versus never having snapshotted (property-tested in
``tests/engine/``).
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from types import MappingProxyType
from typing import Any, Mapping

from repro._exceptions import SnapshotError
from repro.core.estimator import KernelDensityEstimator
from repro.detectors._state import ChildStalenessTracker, StreamModelState
from repro.detectors.single import OnlineOutlierDetector
from repro.engine.core import DetectorEngine
from repro.obs.health import HealthThresholds, ModelHealth
from repro.streams.quantiles import GKQuantileSummary
from repro.streams.sampling import ChainSample, ReservoirSample
from repro.streams.variance import ExactWindowedVariance, MultiDimVarianceSketch
from repro.streams.window import SlidingWindow

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_SCHEMA_VERSION",
    "REGISTERED_CLASSES",
    "encode_snapshot",
    "decode_snapshot",
    "registered_class",
]

#: First bytes of every snapshot artifact.
SNAPSHOT_MAGIC = b"RSNP"

#: Bump on any incompatible change to the framing or to a registered
#: class's ``snapshot_state`` layout; decode rejects other versions.
#: Version 2: ``DetectorEngine`` stores flat chain and EH-lane arrays
#: instead of one nested detector state per stream.
#: Version 3: ``ChainSample`` and ``MultiDimVarianceSketch`` hold any
#: number of lockstep streams and store those flat arrays themselves
#: (chains as ``(slot, ts, value)`` arrays with per-stream generator
#: lists, lanes as concatenated bucket arrays with one timestamp and
#: compress phase); ``DetectorEngine`` nests one of each.
#: Version 4: ``ChainSample`` draws successors from one 64-bit key per
#: stream (counter-based) and stores those ``keys`` in place of the
#: per-slot ``successor_rngs`` generator states.
SNAPSHOT_SCHEMA_VERSION = 4

#: ``magic | version (u16) | payload length (u64) | sha256 digest``.
_HEADER = struct.Struct(">4sHQ32s")

#: The codec's closed world.  RL013 parses this tuple statically: every
#: element must stay a bare class name, and every shard-state class in
#: the tree must appear here.
REGISTERED_CLASSES: "tuple[type, ...]" = (
    ChainSample,
    ReservoirSample,
    SlidingWindow,
    MultiDimVarianceSketch,
    ExactWindowedVariance,
    GKQuantileSummary,
    KernelDensityEstimator,
    StreamModelState,
    ChildStalenessTracker,
    OnlineOutlierDetector,
    HealthThresholds,
    ModelHealth,
    DetectorEngine,
)

_BY_NAME: "Mapping[str, type]" = MappingProxyType(
    {cls.__name__: cls for cls in REGISTERED_CLASSES})


def registered_class(name: str) -> type:
    """The registered class for ``name`` (:class:`SnapshotError` if unknown)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise SnapshotError(
            f"class {name!r} is not registered with the snapshot codec; "
            f"registered: {known}") from None


def encode_snapshot(obj: Any) -> bytes:
    """Serialize a registered object's state into framed, checksummed bytes."""
    name = type(obj).__name__
    if _BY_NAME.get(name) is not type(obj):
        raise SnapshotError(
            f"cannot snapshot unregistered class {type(obj).__qualname__}")
    state = obj.snapshot_state()
    payload = pickle.dumps({"class": name, "state": state},
                           protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_SCHEMA_VERSION,
                          len(payload), hashlib.sha256(payload).digest())
    return header + payload


def decode_snapshot(data: bytes) -> Any:
    """Verify and restore an object from :func:`encode_snapshot` bytes."""
    if len(data) < _HEADER.size:
        raise SnapshotError(
            f"snapshot truncated: {len(data)} bytes is shorter than the "
            f"{_HEADER.size}-byte header")
    magic, version, length, digest = _HEADER.unpack_from(data)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"unsupported snapshot schema version {version} "
            f"(this build reads version {SNAPSHOT_SCHEMA_VERSION})")
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise SnapshotError(
            f"snapshot payload truncated: header promises {length} bytes, "
            f"found {len(payload)}")
    if hashlib.sha256(payload).digest() != digest:
        raise SnapshotError("snapshot checksum mismatch (corrupt payload)")
    record = pickle.loads(payload)
    cls = registered_class(str(record["class"]))
    restore = getattr(cls, "restore_state")
    return restore(record["state"])
