"""Short-read simulation with errors, strands and multi-hit reads.

Produces alignment-ready reads (the output of the upstream alignment stage
SOAPsnp consumes): every read knows its matched reference position, strand,
and hit count.  Bases and qualities are stored in *forward reference
orientation* (as SOAP alignment files do); the machine cycle of forward
position ``j`` on a reverse-strand read is ``read_len - 1 - j``, which is
what the ``coord`` dimension of ``base_occ``/``base_word`` records.
"""

from __future__ import annotations

import numpy as np

from ..align.records import AlignmentBatch
from ..constants import COMPLEMENT_CODE
from .diploid import Diploid
from .quality import QualityModel


def covered_blocks(
    length: int,
    coverage: float,
    block_size: int,
    read_len: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick non-overlapping covered blocks totaling ~coverage of the genome.

    Returns ``(k, 2)`` start/end pairs (ends exclusive).  Reads are sampled
    only within blocks, producing the partial coverage of Table II (reads
    are "randomly sampled [so] the original sequence may not be completely
    covered").
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    if coverage == 1.0:
        return np.array([[0, length]], dtype=np.int64)
    # Keep at least ~25 blocks so the covered fraction is achievable to a
    # few percent even on small (test-scale) genomes.
    block_size = max(min(block_size, length // 25), 2 * read_len)
    n_blocks_total = max(1, length // block_size)
    n_covered = max(1, int(round(n_blocks_total * coverage)))
    chosen = np.sort(rng.choice(n_blocks_total, n_covered, replace=False))
    starts = chosen.astype(np.int64) * block_size
    ends = np.minimum(starts + block_size, length)
    return np.stack([starts, ends], axis=1)


def simulate_reads(
    diploid: Diploid,
    depth: float,
    coverage: float = 1.0,
    read_len: int = 100,
    quality: QualityModel | None = None,
    multihit_fraction: float = 0.05,
    block_size: int = 2000,
    seed: int = 2,
) -> AlignmentBatch:
    """Simulate a position-sorted batch of aligned reads at the given
    sequencing depth.

    ``depth`` is total read bases / reference length (the paper's
    definition), so the *covered-region* depth is ``depth / coverage``.
    """
    if quality is None:
        quality = QualityModel()
    ref = diploid.reference
    length = ref.length
    if read_len > length:
        raise ValueError("read_len exceeds reference length")
    rng = np.random.default_rng(seed)
    n_reads = int(round(depth * length / read_len))

    blocks = covered_blocks(length, coverage, block_size, read_len, rng)
    span = np.maximum(blocks[:, 1] - blocks[:, 0] - read_len, 0)
    usable = span > 0
    blocks, span = blocks[usable], span[usable]
    if blocks.shape[0] == 0:
        raise ValueError("coverage blocks too small for the read length")
    cum = np.concatenate([[0], np.cumsum(span)])
    u = rng.integers(0, cum[-1], n_reads)
    b = np.searchsorted(cum, u, side="right") - 1
    pos = blocks[b, 0] + (u - cum[b])

    order = np.argsort(pos, kind="stable")
    pos = pos[order].astype(np.int64)

    strand = rng.integers(0, 2, n_reads).astype(np.uint8)
    hap_choice = rng.integers(0, 2, n_reads)
    idx = pos[:, None] + np.arange(read_len)[None, :]
    bases = np.where(
        hap_choice[:, None] == 0, diploid.hap1[idx], diploid.hap2[idx]
    ).astype(np.uint8)

    # Qualities are generated per machine cycle, then flipped into forward
    # orientation for reverse-strand reads.
    q_machine = quality.sample(n_reads, read_len, rng)
    rev = strand == 1
    quals = q_machine.copy()
    quals[rev] = q_machine[rev][:, ::-1]

    # Substitution errors at the per-base Phred error probability.  The
    # machine errs on the strand it reads; a uniform wrong base on the
    # machine strand is also uniform after complementing back, so we can
    # apply errors directly in forward orientation.
    p_err = np.power(10.0, -quals.astype(np.float64) / 10.0)
    err = rng.random((n_reads, read_len)) < p_err
    shift = rng.integers(1, 4, size=int(err.sum())).astype(np.uint8)
    bases[err] = (bases[err] + shift) % 4

    hits = np.ones(n_reads, dtype=np.uint8)
    multi = rng.random(n_reads) < multihit_fraction
    hits[multi] = rng.integers(2, 10, size=int(multi.sum()))

    batch = AlignmentBatch(
        chrom=ref.name,
        read_len=read_len,
        pos=pos,
        strand=strand,
        hits=hits,
        bases=bases,
        quals=quals,
    )
    batch.validate()
    return batch


def reverse_complement_view(
    batch: AlignmentBatch, i: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bases/quals of read ``i`` as the machine actually read them.

    Forward reads return the stored arrays; reverse reads return the
    reverse complement with reversed qualities (the aligner's input, and
    what SOAP alignment text holds).
    """
    b = batch.bases[i]
    q = batch.quals[i]
    if batch.strand[i] == 0:
        return b.copy(), q.copy()
    return COMPLEMENT_CODE[b[::-1]].copy(), q[::-1].copy()
