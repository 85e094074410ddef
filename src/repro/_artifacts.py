"""Crash-safe artifact writes: tmp file + ``os.replace``.

Benchmark JSON documents, the obs metric exporters and the engine
checkpoint store all persist state a later process depends on.  A plain
``write_text`` interrupted by a crash (exactly the failure mode
:mod:`repro.engine` injects on purpose) leaves a truncated artifact
that poisons every later read; these helpers write the full payload to
a temporary file in the *target directory* (same filesystem, so the
final rename is atomic), flush and fsync it, and only then
``os.replace`` it over the destination.  A kill at any instant leaves
either the old artifact or the new one -- never a mix, never a torn
tail.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_text"]


def atomic_write_bytes(path: "str | Path", data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically; return the target path.

    The payload lands in a uniquely named sibling temp file first and is
    renamed over the target only after a successful flush + fsync, so a
    crash mid-write cannot corrupt an existing artifact.  The temp file
    is removed on failure.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as sink:
            sink.write(data)
            sink.flush()
            os.fsync(sink.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def atomic_write_text(path: "str | Path", text: str, *,
                      encoding: str = "utf-8") -> Path:
    """Write ``text`` to ``path`` atomically; return the target path."""
    return atomic_write_bytes(path, text.encode(encoding))
