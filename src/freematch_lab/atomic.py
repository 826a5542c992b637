"""Atomic file output: an artifact is either complete or absent."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Yield a handle on a temp file beside `path`. A clean exit renames it
    over `path`; an exception removes it and propagates."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
