"""Atomic file output: an artifact is either complete or absent. Every CSV
table goes through `write_csv`, so all of them share one cell rule."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Yield a handle on a temp file beside `path`. A clean exit renames it
    over `path`; an exception removes it and propagates, an OSError as one
    whose `filename` is `path`, not the temp file's name."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), path) from exc
        raise


def write_csv(path: str, header: list[str], rows) -> None:
    """Write a header row, then `rows`, atomically. A cell that is None is
    empty, text is written as is and a number as `%.12g`."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if v is None else v if isinstance(v, str) else f"{v:.12g}" for v in row] for row in rows)
