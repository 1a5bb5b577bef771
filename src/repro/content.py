"""The one content hash behind every cache key, journal key and seal.

Each part is framed with a type tag and its length before it reaches
sha256, so no sequence of parts encodes as a prefix of another: ``("ab",
"c")`` and ``("a", "bc")`` differ, and so do two arrays sharing bytes but
not dtype or shape.  :func:`repro.api.job_key` builds every job-level key
on it (DESIGN.md, "Content address").
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np


def _frame(h, part) -> None:
    if isinstance(part, (tuple, list)):
        h.update(b"t%d:" % len(part))
        for item in part:
            _frame(h, item)
        return
    if dataclasses.is_dataclass(part) and not isinstance(part, type):
        return _frame(h, [(f.name, getattr(part, f.name))
                          for f in dataclasses.fields(part)])
    if isinstance(part, np.ndarray):
        part = np.ascontiguousarray(part)
        _frame(h, (part.dtype.str, part.shape))
        tag, payload = b"a", part.reshape(-1).view(np.uint8)
    elif isinstance(part, Path):  # a file stands for its bytes
        fh = hashlib.sha256()
        with open(part, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                fh.update(block)
        tag, payload = b"p", fh.digest()
    elif isinstance(part, bytes):
        tag, payload = b"b", part
    elif isinstance(part, str):
        tag, payload = b"s", part.encode()
    elif part is None or isinstance(part, (bool, int, float)):
        tag, payload = b"r", f"{type(part).__name__}:{part!r}".encode()
    else:
        raise TypeError(f"cannot digest a {type(part).__name__}")
    h.update(b"%s%d:" % (tag, len(payload)))
    h.update(payload)


def digest(*parts) -> str:
    """Hex sha256 of ``parts``: strings, bytes, scalars, ``None``, arrays
    (dtype, shape and bytes), files (a :class:`~pathlib.Path` stands for
    its file's bytes), dataclasses (their fields) and sequences of these.

    A lone ``bytes`` part is hashed unframed, so a sealed record's digest
    line stays the plain sha256 of its bytes across versions.
    """
    h = hashlib.sha256()
    if len(parts) == 1 and isinstance(parts[0], bytes):
        h.update(parts[0])
    else:
        _frame(h, parts)
    return h.hexdigest()


__all__ = ["digest"]
