"""Synthetic reference sequence generation.

The paper evaluates on the human reference; offline we synthesize reference
sequences with controllable length, GC content and seed.  Sequences are
stored as ``uint8`` base codes (A=0, C=1, G=2, T=3) — the same encoding the
rest of the package uses everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import BASES


@dataclass(frozen=True)
class Reference:
    """A named reference sequence of base codes."""

    name: str
    codes: np.ndarray  # uint8, values 0..3

    @property
    def length(self) -> int:
        return int(self.codes.size)

    @staticmethod
    def from_string(name: str, seq: str) -> "Reference":
        """Parse an ACGT string (raises on other characters)."""
        raw = np.frombuffer(seq.upper().encode(), dtype=np.uint8)
        codes = np.full(raw.size, 255, dtype=np.uint8)
        for i, b in enumerate(BASES):
            codes[raw == ord(b)] = i
        if (codes == 255).any():
            bad = chr(int(raw[codes == 255][0]))
            raise ValueError(f"invalid base {bad!r} in reference {name!r}")
        return Reference(name, codes)


def synthesize_reference(
    name: str,
    length: int,
    gc_content: float = 0.41,
    seed: int = 0,
) -> Reference:
    """Generate a random reference with the given GC fraction.

    Human genomic GC content is ~41%, the default here.  The generator is
    a PCG64 stream keyed by ``seed`` so datasets are reproducible.
    """
    if length <= 0:
        raise ValueError("reference length must be positive")
    if not 0.0 <= gc_content <= 1.0:
        raise ValueError("gc_content must be in [0, 1]")
    rng = np.random.default_rng(seed)
    at = (1.0 - gc_content) / 2.0
    gc = gc_content / 2.0
    codes = rng.choice(
        4, size=length, p=[at, gc, gc, at]
    ).astype(np.uint8)
    return Reference(name, codes)
