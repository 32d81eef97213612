"""Filesystem helpers shared across layers (stdlib only).

One function, on purpose: the checkpoint writer, the serve session
directory and the sweep cache all replace whole files that a later
process must find either complete or absent.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_text"]


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Replace ``path`` with ``text``: temp file beside it + ``os.replace``.

    A process kill at any point leaves the old file or the new one,
    never a truncated mix (plus, at worst, a stray ``<name>.*.tmp``).
    No ``fsync``: this is process-kill safety, not power-loss safety.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
