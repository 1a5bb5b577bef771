"""Calling-accuracy evaluation against planted truth.

The paper evaluates performance, taking accuracy as given ("the Bayesian
model ... has shown high accuracy in practice" [1]); a reproduction with
synthetic truth can *measure* it.  This module sweeps the consensus-quality
threshold and reports precision/recall per operating point — the standard
way to characterize a caller — plus the count of genotype-exact calls (the
called genotype must match the planted one, not merely flag the site).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import GENOTYPES
from ..formats.cns import ResultTable
from ..seqsim.datasets import SimulatedDataset
from ..soapsnp.posterior import is_snp_call


@dataclass(frozen=True)
class OperatingPoint:
    """Calling accuracy at one quality threshold."""

    min_quality: int
    true_positives: int
    false_positives: int
    false_negatives: int
    genotype_exact: int

    @property
    def precision(self) -> float:
        d = self.true_positives + self.false_positives
        return self.true_positives / d if d else 1.0

    @property
    def recall(self) -> float:
        d = self.true_positives + self.false_negatives
        return self.true_positives / d if d else 1.0


def quality_sweep(
    table: ResultTable,
    dataset: SimulatedDataset,
    thresholds=(0, 5, 13, 20, 30, 50),
    min_depth: int = 1,
) -> list[OperatingPoint]:
    """Score calls at each quality threshold.

    Planted SNPs at sites with depth below ``min_depth`` are excluded from
    the false-negative count (undetectable by construction).  A dataset
    parsed from files has no planted truth and is a ``ValueError``.
    """
    if dataset.diploid is None:
        raise ValueError(
            "dataset has no planted truth to score against (parsed inputs)"
        )
    snp_mask = is_snp_call(table)
    pos0 = table.pos - 1
    depth_at = np.zeros(dataset.n_sites, dtype=np.int64)
    depth_at[pos0] = table.depth
    truth_positions = dataset.diploid.snp_positions
    visible = truth_positions[depth_at[truth_positions] >= min_depth]
    truth_set = {int(p) for p in visible}
    truth_geno = {
        int(p): GENOTYPES.index(
            (int(g[0]), int(g[1]))
        )
        for p, g in zip(
            dataset.diploid.snp_positions, dataset.diploid.snp_genotypes
        )
    }
    out = []
    for q in thresholds:
        called = snp_mask & (table.quality >= q)
        called_pos = pos0[called]
        called_geno = table.genotype[called]
        tp = fp = exact = 0
        for p, g in zip(called_pos.tolist(), called_geno.tolist()):
            if p in truth_set:
                tp += 1
                if truth_geno.get(p) == g:
                    exact += 1
            else:
                fp += 1
        out.append(
            OperatingPoint(
                min_quality=q,
                true_positives=tp,
                false_positives=fp,
                false_negatives=len(truth_set) - tp,
                genotype_exact=exact,
            )
        )
    return out

