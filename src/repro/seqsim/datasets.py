"""Evaluation datasets: scaled replicas of the paper's Table II.

The paper uses BGI's whole-human-genome resequencing data (247 M sites for
chromosome 1).  A pure-Python reproduction cannot process 10^8 sites per
experiment, so every dataset here is a 1/1000-scale replica that preserves
the quantities the algorithms are sensitive to — sequencing depth, coverage
ratio, read length, quality profile, and hence the ``base_occ`` sparsity
regime of Figure 4(b).  Cost-model event counts scale linearly in sites, so
full-scale modeled times are ``scaled counts x 1000``
(:mod:`repro.bench.scale`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..align.records import AlignmentBatch
from .diploid import Diploid, simulate_diploid
from .quality import QualityModel
from .reads import simulate_reads
from .reference import Reference, synthesize_reference

#: Linear scale factor between simulated datasets and the paper's.
DEFAULT_SCALE = 1000


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of one simulated dataset."""

    name: str
    n_sites: int
    depth: float
    coverage: float
    read_len: int = 100
    snp_rate: float = 1e-3
    het_fraction: float = 0.6
    known_fraction: float = 0.8
    multihit_fraction: float = 0.05
    seed: int = 0
    #: Factor relating this dataset to the paper's full-scale original.
    scale_factor: float = DEFAULT_SCALE


@dataclass(frozen=True)
class KnownSnpPrior:
    """The third input file: per-site prior rates for known SNPs."""

    positions: np.ndarray  # int64, sorted
    rates: np.ndarray  # float64, prior SNP probability per listed site

    @property
    def n_sites(self) -> int:
        return int(self.positions.size)

    def rate_at(self, positions: np.ndarray, novel_rate: float) -> np.ndarray:
        """Prior SNP rate for each queried position (vectorized)."""
        out = np.full(np.asarray(positions).shape, novel_rate, dtype=np.float64)
        if self.n_sites == 0:
            return out
        idx = np.searchsorted(self.positions, positions)
        idx_c = np.minimum(idx, self.n_sites - 1)
        hit = (idx < self.n_sites) & (self.positions[idx_c] == positions)
        out[hit] = self.rates[idx_c[hit]]
        return out


@dataclass
class SimulatedDataset:
    """Everything one SNP-calling run needs, plus ground truth where it was
    planted: ``spec`` and ``diploid`` are ``None`` for parsed input files."""

    spec: Optional[DatasetSpec]
    reference: Reference
    diploid: Optional[Diploid]
    reads: AlignmentBatch
    prior: KnownSnpPrior

    @property
    def n_sites(self) -> int:
        return self.reference.length


# --- Table II replicas -------------------------------------------------------

#: Chromosome 1: the largest sequence (247 M sites, 11X, 88% coverage).
CH1_SPEC = DatasetSpec(
    name="ch1-sim", n_sites=247_000, depth=11.0, coverage=0.88, seed=11
)

#: Chromosome 21: the smallest sequence (47 M sites, 9.6X, 68% coverage).
CH21_SPEC = DatasetSpec(
    name="ch21-sim", n_sites=47_000, depth=9.6, coverage=0.68, seed=21
)

#: Paper's full-scale Table II, for side-by-side benchmark reporting.
TABLE2_FULL = {
    "ch1-sim": {
        "sites": 247e6,
        "depth": 11.0,
        "reads": 44e6,
        "coverage": 0.88,
        "input_gb": 12.0,
        "output_gb": 17.0,
    },
    "ch21-sim": {
        "sites": 47e6,
        "depth": 9.6,
        "reads": 6e6,
        "coverage": 0.68,
        "input_gb": 2.0,
        "output_gb": 3.0,
    },
}

#: Approximate hg18 chromosome lengths in Mbp, used for the 24-sequence
#: whole-genome workload of Figure 12 (scaled to k-sites).
HG_CHROM_MBP = {
    "chr1": 247, "chr2": 243, "chr3": 199, "chr4": 191, "chr5": 181,
    "chr6": 171, "chr7": 159, "chr8": 146, "chr9": 140, "chr10": 135,
    "chr11": 134, "chr12": 132, "chr13": 114, "chr14": 106, "chr15": 100,
    "chr16": 89, "chr17": 79, "chr18": 76, "chr19": 63, "chr20": 62,
    "chr21": 47, "chr22": 50, "chrX": 155, "chrY": 58,
}


def whole_genome_specs(
    depth: float = 11.0, coverage: float = 0.85
) -> list[DatasetSpec]:
    """Dataset specs for all 24 sequences of the Figure 12 workload."""
    specs = []
    for i, (name, mbp) in enumerate(HG_CHROM_MBP.items()):
        d = depth if name != "chrY" else depth / 2.0
        specs.append(
            DatasetSpec(
                name=f"{name}-sim",
                n_sites=mbp * 1000,
                depth=d,
                coverage=coverage,
                seed=100 + i,
            )
        )
    return specs


def _make_prior(
    diploid: Diploid, known_fraction: float, rng: np.random.Generator
) -> KnownSnpPrior:
    """Build the known-SNP prior file: most planted SNPs plus decoys.

    Real dbSNP contains both true polymorphisms of this individual and
    sites where this individual is homozygous reference; we include one
    decoy per two known SNPs to exercise that path.
    """
    snp_pos = diploid.snp_positions
    n_known = int(round(snp_pos.size * known_fraction))
    known = rng.choice(snp_pos, size=n_known, replace=False) if n_known else (
        np.empty(0, dtype=np.int64)
    )
    n_decoys = n_known // 2
    length = diploid.reference.length
    decoys = rng.choice(length, size=min(n_decoys, length), replace=False)
    decoys = np.setdiff1d(decoys, snp_pos)
    positions = np.sort(np.unique(np.concatenate([known, decoys]))).astype(
        np.int64
    )
    # Allele-frequency-derived prior rates: common SNPs get ~0.1-0.5.
    rates = np.clip(rng.beta(2.0, 8.0, positions.size), 0.01, 0.5)
    return KnownSnpPrior(positions=positions, rates=rates)


def generate_dataset(
    spec: DatasetSpec, quality: QualityModel | None = None
) -> SimulatedDataset:
    """Generate reference, individual, reads and prior for a spec."""
    rng = np.random.default_rng(spec.seed)
    reference = synthesize_reference(
        spec.name, spec.n_sites, seed=spec.seed * 7 + 1
    )
    diploid = simulate_diploid(
        reference,
        snp_rate=spec.snp_rate,
        het_fraction=spec.het_fraction,
        seed=spec.seed * 7 + 2,
    )
    reads = simulate_reads(
        diploid,
        depth=spec.depth,
        coverage=spec.coverage,
        read_len=spec.read_len,
        quality=quality,
        multihit_fraction=spec.multihit_fraction,
        seed=spec.seed * 7 + 3,
    )
    prior = _make_prior(diploid, spec.known_fraction, rng)
    return SimulatedDataset(
        spec=spec, reference=reference, diploid=diploid, reads=reads,
        prior=prior,
    )


def dataset_summary(ds: SimulatedDataset) -> dict[str, float]:
    """Table-II-style characteristics of a generated dataset."""
    covered = np.zeros(ds.n_sites, dtype=bool)
    idx = ds.reads.pos[:, None] + np.arange(ds.reads.read_len)[None, :]
    covered[idx.ravel()] = True
    return {
        "sites": float(ds.n_sites),
        "depth": ds.reads.n_reads * ds.reads.read_len / ds.n_sites,
        "reads": float(ds.reads.n_reads),
        "coverage": float(covered.mean()),
        "snps_planted": float(ds.diploid.n_snps),
        "known_prior_sites": float(ds.prior.n_sites),
    }
