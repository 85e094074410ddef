"""Atomic artifact writes: kill-mid-write leaves old-or-new, never torn."""

from __future__ import annotations

import os

import pytest

from repro._artifacts import atomic_write_bytes, atomic_write_text


class TestAtomicWrite:
    def test_writes_and_returns_target(self, tmp_path):
        target = tmp_path / "BENCH_x.json"
        assert atomic_write_text(target, '{"a": 1}\n') == target
        assert target.read_text() == '{"a": 1}\n'

    def test_overwrites_whole_file(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_text(target, "old contents, rather long\n")
        atomic_write_text(target, "new\n")
        assert target.read_text() == "new\n"

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write_bytes(tmp_path / "a.bin", b"payload")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_kill_mid_write_preserves_old_artifact(self, tmp_path,
                                                   monkeypatch):
        # The crash the engine injects on purpose: the process dies while
        # the payload is being flushed.  The old artifact must survive
        # byte for byte and no temp file may be left behind.
        target = tmp_path / "BENCH_recovery.json"
        atomic_write_text(target, '{"generation": 1}\n')

        def dying_fsync(fd):
            raise KeyboardInterrupt("killed mid-write")

        monkeypatch.setattr(os, "fsync", dying_fsync)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(target, '{"generation": 2}\n')
        monkeypatch.undo()
        assert target.read_text() == '{"generation": 1}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            [target.name]

    def test_kill_before_replace_leaves_no_partial_new_file(self, tmp_path,
                                                            monkeypatch):
        target = tmp_path / "fresh.json"

        def dying_replace(src, dst):
            raise KeyboardInterrupt("killed between fsync and rename")

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(target, "never lands\n")
        monkeypatch.undo()
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
