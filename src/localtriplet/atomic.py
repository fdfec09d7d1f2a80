"""All-or-nothing artifact writes: a reader of the target sees the old
file or the complete new one, never a partial write."""
from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "wb", newline: str | None = None):
    """Open a temporary file beside path; os.replace it onto path on a
    clean exit, delete it otherwise (a failed replace included), naming path
    in an OS error that names no file, as a failed write does. newline is
    passed to open (csv writers need newline="")."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    f = open(tmp, mode, newline=newline)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException as err:
        os.unlink(tmp)
        if isinstance(err, OSError) and err.errno and err.filename is None:
            err.filename = os.fspath(path)
        raise
