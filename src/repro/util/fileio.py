"""Durable file publication shared by the checkpoint stores and the bench log."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


def atomic_write_text(path: "str | os.PathLike", text: str) -> None:
    """Publish ``text`` at ``path`` atomically and durably.

    The text goes to a temporary file with a name of its own in the same
    directory, which is fsynced and renamed over ``path``; the directory
    is fsynced last so the rename itself survives a power loss.  A reader
    sees either the old complete file or the new one, two concurrent
    writers never share a temporary file, and the temporary file is
    removed if any step fails.
    """
    target = Path(path)
    temporary = target.with_name(
        f".{target.name}.{os.getpid()}.{os.urandom(6).hex()}.tmp"
    )
    # O_EXCL makes the name ours alone; 0o666 (less the umask) gives the
    # published file the permissions a plain ``open`` would.
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        raise
    _fsync_directory(target.parent)


def _fsync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # platforms that cannot open a directory (Windows)
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
