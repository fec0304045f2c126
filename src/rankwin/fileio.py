"""Run-directory file plumbing: atomic replacement, npz reading and the npz run stamp."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import zipfile
import zlib
from typing import IO, Iterator, Mapping

import numpy as np

from rankwin.errors import DataError, DigestMismatchError, RankwinError


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a temp file next to ``path``; it replaces ``path`` when the block exits cleanly.

    On any exception the temp file is removed and ``path`` is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:  # name the file asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class _Entries(dict):
    """An artifact's items by name; looking up an absent one raises DataError."""

    def __init__(self, path: str, items: dict, kind: str = "entry"):
        super().__init__(items)
        self.path, self.kind = path, kind

    def __missing__(self, name: str):
        raise DataError(f"{self.path} has no {name!r} {self.kind}")


def read_npz(path: str) -> dict[str, np.ndarray]:
    """Every array of an npz artifact; a file numpy cannot read as one raises DataError."""
    try:
        with np.load(path) as data:
            return _Entries(path, {name: data[name] for name in data.files})
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise DataError(f"{path} is not a readable npz file: {exc}") from None


def pack_meta(meta: dict, run_id: str | None = None) -> np.ndarray:
    """An npz's ``meta`` entry: sorted JSON as uint8, stamped with ``run_id`` if given."""
    if run_id is not None:
        meta = {**meta, "run_id": run_id}
    return np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)


def unpack_meta(data: Mapping[str, np.ndarray], path: str, version: int,
                run_id: str | None = None) -> dict:
    """Decode ``data["meta"]``; it must carry ``version`` and, if given, ``run_id``.

    Looking up a key the meta (or an object nested in it) lacks raises DataError.
    """
    try:
        meta = json.loads(bytes(data["meta"]).decode(),
                          object_hook=lambda d: _Entries(path, d, "meta key"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        meta = None
    if not isinstance(meta, dict):
        raise DataError(f"{path} has a meta entry that is not a JSON object")
    if meta.get("format_version") != version:
        raise DataError(f"{path} has unsupported format version "
                        f"{meta.get('format_version')}, expected {version}")
    if run_id is not None and meta.get("run_id") != run_id:
        raise DigestMismatchError(f"{path} belongs to run {meta.get('run_id')}, expected {run_id}")
    return meta


@contextlib.contextmanager
def decoding_meta(path: str) -> Iterator[None]:
    """Build objects from ``path``'s meta inside this block: a meta value of the wrong
    JSON type (a TypeError, ValueError or IndexError) raises DataError naming the file."""
    try:
        yield
    except RankwinError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise DataError(f"{path} has an unusable meta value: {exc}") from None
