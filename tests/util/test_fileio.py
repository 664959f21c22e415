"""Durable publication: fsync of file and directory, plain-open permissions."""

from __future__ import annotations

import os
import stat

from repro.util.fileio import atomic_write_text


def test_publishes_text_and_fsyncs_file_then_directory(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append("directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    path = tmp_path / "record.json"
    atomic_write_text(path, "payload\n")
    assert path.read_text() == "payload\n"
    assert synced == ["file", "directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["record.json"]


def test_permissions_follow_the_umask_like_plain_open(tmp_path):
    previous = os.umask(0o022)
    try:
        atomic_write_text(tmp_path / "published.json", "x")
        (tmp_path / "plain.json").write_text("x")
    finally:
        os.umask(previous)
    mode = (tmp_path / "published.json").stat().st_mode & 0o777
    assert mode == (tmp_path / "plain.json").stat().st_mode & 0o777
