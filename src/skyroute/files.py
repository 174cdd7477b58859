"""Whole-file writes: a reader of the target sees its old contents or its
new ones, never a part, and a failed write leaves the old ones."""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager, suppress


@contextmanager
def replacing(path: str):
    """A UTF-8 text file (newlines written as given) that replaces `path`
    when the block ends, with the mode open() would give it. It is a new,
    hidden file beside `path`; if the block raises, it is removed and
    `path` stays as it was."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    # Mode 0o666, so the umask applies as with open().
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="", encoding="utf-8") as f:
            with suppress(FileNotFoundError):    # keep a replaced file's mode
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
