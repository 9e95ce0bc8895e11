"""Crash-safe file writes and UTF-8 reads that name the undecodable line."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside `path` that replaces `path` when the block
    ends and is removed if the block raises, so no reader ever finds a
    half-written file under `path`."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_text(path, error: type[Exception]) -> str:
    """A file's UTF-8 text; a byte that is not UTF-8 raises `error` with its
    path:line, as the panel loader's NotUtf8 does."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        start = data.rfind(b"\n", 0, e.start) + 1
        lineno = data.count(b"\n", 0, start) + 1
        raise error(f"{path}:{lineno}: byte {data[e.start]:#04x} at column "
                    f"{e.start - start + 1} is not UTF-8") from None
