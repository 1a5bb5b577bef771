"""Per-cycle sequencing-quality model.

Second-generation (Illumina-style) quality degrades along the read: early
cycles call at Phred ~38, late cycles drift down toward ~22, with per-base
noise.  The model here produces integer Phred scores in [min_q, max_q]
(max_q < 64 so scores fit the 6-bit field of ``base_word``), and the
corresponding error probabilities drive the read simulator's substitution
errors — giving the ~2% aggregate error rate the paper quotes for second
generation data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QualityModel:
    """Linear per-cycle decay with Gaussian noise."""

    q_start: float = 35.0
    q_end: float = 15.0
    noise_sd: float = 3.0
    min_q: int = 2
    max_q: int = 40

    def __post_init__(self) -> None:
        if not 0 <= self.min_q <= self.max_q < 64:
            raise ValueError("quality range must satisfy 0<=min<=max<64")

    def cycle_means(self, read_len: int) -> np.ndarray:
        """Mean Phred score per machine cycle."""
        if read_len <= 0:
            raise ValueError("read_len must be positive")
        if read_len == 1:
            return np.array([self.q_start])
        return np.linspace(self.q_start, self.q_end, read_len)

    #: Consecutive cycles sharing one noise draw.  Illumina base callers
    #: emit *binned* qualities that plateau for stretches of a read — the
    #: property Section V-B's RLE level exploits ("bases on a short read
    #: usually have the same sequencing quality").
    bin_cycles: int = 8
    #: Quality quantization step (binned Q-scores).
    quant: int = 3

    def sample(
        self, n_reads: int, read_len: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample integer quality scores of shape (n_reads, read_len).

        Noise is drawn per ``bin_cycles`` segment and scores are quantized
        to multiples of ``quant``, producing the plateau runs real binned
        Illumina qualities show.
        """
        means = self.cycle_means(read_len)
        n_segs = -(-read_len // self.bin_cycles)
        seg_noise = rng.normal(0.0, self.noise_sd, (n_reads, n_segs))
        noise = np.repeat(seg_noise, self.bin_cycles, axis=1)[:, :read_len]
        q = means[None, :] + noise
        q = np.rint(q / self.quant) * self.quant
        return np.clip(q, self.min_q, self.max_q).astype(np.uint8)
