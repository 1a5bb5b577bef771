"""Diploid individual simulation: planting SNPs into a reference.

SNP detection compares a resequenced *individual* against the reference, so
the simulator derives a diploid genotype (two haplotypes) from the
reference by planting single-nucleotide variants:

* a fraction ``snp_rate`` of sites become SNPs (human-scale ~1e-3),
* ``het_fraction`` of those are heterozygous (ref/alt), the rest
  homozygous alt,
* alternative alleles prefer transitions over transversions with ratio
  ``titv`` (the empirical ~2-4x bias the posterior priors also encode).

The planted truth is kept so tests and benchmarks can score calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import N_BASES
from .reference import Reference

#: For each reference base code, its transition partner (A<->G, C<->T).
_TRANSITION = np.array([2, 3, 0, 1], dtype=np.uint8)


@dataclass(frozen=True)
class Diploid:
    """A simulated individual: two haplotypes plus planted-SNP truth."""

    reference: Reference
    hap1: np.ndarray  # uint8 base codes
    hap2: np.ndarray
    snp_positions: np.ndarray  # int64, sorted
    #: Genotype at each SNP position as (allele1, allele2), allele1<=allele2.
    snp_genotypes: np.ndarray  # (n_snps, 2) uint8

    @property
    def n_snps(self) -> int:
        return int(self.snp_positions.size)


def simulate_diploid(
    reference: Reference,
    snp_rate: float = 1e-3,
    het_fraction: float = 0.6,
    titv: float = 4.0,
    seed: int = 1,
) -> Diploid:
    """Plant SNPs into a reference and return the diploid individual."""
    if not 0.0 <= snp_rate < 1.0:
        raise ValueError("snp_rate must be in [0, 1)")
    if not 0.0 <= het_fraction <= 1.0:
        raise ValueError("het_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    length = reference.length
    n_snps = int(round(length * snp_rate))
    positions = np.sort(
        rng.choice(length, size=min(n_snps, length), replace=False)
    ).astype(np.int64)
    ref_codes = reference.codes[positions]

    # Pick alternative alleles: transition with prob titv/(titv+2) (two
    # transversion choices share the rest).
    p_ti = titv / (titv + 2.0)
    u = rng.random(positions.size)
    alt = np.empty(positions.size, dtype=np.uint8)
    ti = u < p_ti
    alt[ti] = _TRANSITION[ref_codes[ti]]
    # Transversions: pick one of the two non-ref, non-transition bases.
    tv = ~ti
    choice = rng.integers(0, 2, size=int(tv.sum()))
    tv_idx = np.nonzero(tv)[0]
    for j, site in enumerate(tv_idx):
        r = ref_codes[site]
        options = [b for b in range(N_BASES) if b != r and b != _TRANSITION[r]]
        alt[site] = options[choice[j]]

    is_het = rng.random(positions.size) < het_fraction
    hap1 = reference.codes.copy()
    hap2 = reference.codes.copy()
    # Homozygous alt: both haplotypes carry alt.  Heterozygous: alt goes to
    # a random haplotype.
    hom = ~is_het
    hap1[positions[hom]] = alt[hom]
    hap2[positions[hom]] = alt[hom]
    het_pos = positions[is_het]
    het_alt = alt[is_het]
    to_h1 = rng.random(het_pos.size) < 0.5
    hap1[het_pos[to_h1]] = het_alt[to_h1]
    hap2[het_pos[~to_h1]] = het_alt[~to_h1]

    genos = np.empty((positions.size, 2), dtype=np.uint8)
    a = np.where(is_het, ref_codes, alt)
    b = alt
    genos[:, 0] = np.minimum(a, b)
    genos[:, 1] = np.maximum(a, b)
    return Diploid(reference, hap1, hap2, positions, genos)
