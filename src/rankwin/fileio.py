"""Atomic file replacement: write a sibling temp file, then ``os.replace``."""

from __future__ import annotations

import contextlib
import os
import tempfile
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a temp file next to ``path``; it replaces ``path`` when the block exits cleanly.

    On any exception the temp file is removed and ``path`` is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
